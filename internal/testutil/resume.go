package testutil

import (
	"fmt"
	"reflect"
)

// ResumedStats reports the first place where a resumed run's statistics
// (got) differ from the uninterrupted run's (want), or nil. The genome memo
// is per-process, so a resumed run starts with an empty one: a field named
// MemoHits, at any depth, may fall short (got <= want). Every other field
// must be equal.
func ResumedStats(want, got any) error {
	return resumedStats(reflect.ValueOf(want), reflect.ValueOf(got), "stats")
}

func resumedStats(w, g reflect.Value, path string) error {
	switch w.Kind() {
	case reflect.Pointer:
		if !w.IsNil() && !g.IsNil() {
			return resumedStats(w.Elem(), g.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < w.NumField(); i++ {
			name := w.Type().Field(i).Name
			if name == "MemoHits" {
				if got, want := g.Field(i).Int(), w.Field(i).Int(); got > want {
					return fmt.Errorf("%s.MemoHits: resumed %d > uninterrupted %d", path, got, want)
				}
			} else if err := resumedStats(w.Field(i), g.Field(i), path+"."+name); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice:
		if w.IsNil() == g.IsNil() && w.Len() == g.Len() {
			for i := 0; i < w.Len(); i++ {
				if err := resumedStats(w.Index(i), g.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if !reflect.DeepEqual(w.Interface(), g.Interface()) {
		return fmt.Errorf("%s: resumed %v, uninterrupted %v", path, g.Interface(), w.Interface())
	}
	return nil
}
