package cache

import (
	"reflect"
	"testing"
)

// pointerBearing returns the path of the first field inside t that the
// garbage collector would have to scan, or "" when t is pointer-free.
func pointerBearing(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Ptr, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerBearing(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return pointerBearing(t.Elem(), path+"[]")
	}
	return ""
}

// TestDataPlaneIsPointerFree pins the property DESIGN.md §12 rests on:
// the element types of the arena slab and of the index table hold no
// pointer-bearing field, so the runtime allocates both slices as noscan
// spans and the GC's mark work does not grow with the resident set. A
// string, slice, map, interface or pointer added to either struct fails
// here.
func TestDataPlaneIsPointerFree(t *testing.T) {
	for _, v := range []any{Entry{}, indexEntry{}, Handle(0)} {
		typ := reflect.TypeOf(v)
		if p := pointerBearing(typ, typ.Name()); p != "" {
			t.Errorf("%s is not pointer-free: %s", typ.Name(), p)
		}
	}
}
