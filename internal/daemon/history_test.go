package daemon

import (
	"reflect"
	"slices"
	"testing"
)

// TestHistoryRecordHasNoPointers keeps the history slot a type the collector
// never scans: every field, through structs and arrays, is a number or a
// bool — no pointer, string, slice, map, channel, func or interface.
func TestHistoryRecordHasNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	check("histRecord", reflect.TypeOf(histRecord{}))
}

// TestHistoryPages checks the table's addressing: slots of IDs far apart
// (a restored snapshot's) live on pages of their own, an ID nobody holds
// reads as absent, and arena runs keep their contents as pages fill, a run
// longer than a page included.
func TestHistoryPages(t *testing.T) {
	var h history
	for _, id := range []int64{1, histPage, histPage + 1, 40 * histPage} {
		h.slot(id).state, h.slot(id).after = stateQueued, id
	}
	for _, id := range []int64{-1, 0, 2, 2 * histPage, 40*histPage + 1, 1 << 40} {
		if h.get(id) != nil {
			t.Errorf("job %d: a slot nobody holds reads as present", id)
		}
	}
	for _, id := range []int64{1, histPage, histPage + 1, 40 * histPage} {
		if r := h.get(id); r == nil || r.after != id {
			t.Errorf("job %d: slot %+v", id, r)
		}
	}
	if n := len(h.pages); n != 40 || h.pages[5] != nil {
		t.Errorf("%d pages, page 5 allocated: %v", n, h.pages[5] != nil)
	}
	var spans []span
	var runs [][]uint64
	for i := range 3 * arenaPage / 100 {
		run := make([]uint64, 1+i%150)
		for j := range run {
			run[j] = uint64(i<<16 | j)
		}
		if i == 7 {
			run = make([]uint64, arenaPage+5)
		}
		spans, runs = append(spans, h.masks.add(run)), append(runs, run)
	}
	for i, s := range spans {
		if got := h.masks.get(s); !slices.Equal(got, runs[i]) || cap(got) != len(got) {
			t.Fatalf("run %d of %d words reads back %d words (cap %d), or others", i, len(runs[i]), len(got), cap(got))
		}
	}
	if h.masks.get(h.masks.add(nil)) != nil {
		t.Error("an empty run reads back non-nil")
	}
}
