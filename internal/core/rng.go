package core

// Source is splitmix64 as a math/rand.Source64. Each draw adds a fixed odd
// gamma to one 64-bit word and returns that word through the finalizer
// ChildSeedStream uses. The word is the generator's whole state: a
// checkpoint stores it as is, a restore is one assignment, and every 64-bit
// value is a valid state. A math/rand.Rand keeps no other state between
// draws (only Read buffers bytes, and the search never calls it), so a Rand
// over a restored Source continues bit-identically.
type Source struct{ state uint64 }

// NewSource returns a stream whose state is seed's bits, so
// NewSource(int64(s.State())) resumes s.
func NewSource(seed int64) *Source { return &Source{state: uint64(seed)} }

// State reports the generator state.
func (s *Source) State() uint64 { return s.state }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// mix64 is splitmix64's finalizer: a bijection of 64-bit words that spreads
// every input bit over the output.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
