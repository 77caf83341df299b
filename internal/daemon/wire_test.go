package daemon

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestWireKeysMatchTags holds each walked protocol type's key list and
// fields method to its struct: one key per field, in field order, with the
// json tag's name and omitempty, and a pointer to that field. A field added
// to protocol.go without its wire entry fails here, not on some later frame.
// JobInfo's straight-line codec is held to json.Marshal field by field.
func TestWireKeysMatchTags(t *testing.T) {
	var (
		req  Request
		spec SubmitSpec
		resp Response
		res  BatchResult
		leaf LeafInfo
		lat  LatencyStats
	)
	fReq, fSpec, fResp, fRes := req.fields(), spec.fields(), resp.fields(), res.fields()
	fLeaf, fLat := leaf.fields(), lat.fields()
	for _, c := range []struct {
		v    any
		keys []key
		ptrs []any
	}{
		{&req, requestKeys, fReq[:]},
		{&spec, specKeys, fSpec[:]},
		{&resp, responseKeys, fResp[:]},
		{&res, batchResultKeys, fRes[:]},
		{&leaf, leafKeys, fLeaf[:]},
		{&lat, latencyKeys, fLat[:]},
	} {
		sv := reflect.ValueOf(c.v).Elem()
		st := sv.Type()
		if st.NumField() != len(c.keys) || len(c.ptrs) != len(c.keys) {
			t.Fatalf("%s: %d fields, %d keys, %d pointers", st, st.NumField(), len(c.keys), len(c.ptrs))
		}
		for i, k := range c.keys {
			sf := st.Field(i)
			name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if k.name != name || k.omit != (opts == "omitempty") {
				t.Errorf("%s.%s: key %q omit %v, tag %q", st, sf.Name, k.name, k.omit, sf.Tag.Get("json"))
			}
			p := reflect.ValueOf(c.ptrs[i])
			if p.Type().Elem() != sf.Type || p.Pointer() != sv.Field(i).Addr().Pointer() {
				t.Errorf("%s: pointer %d is a %s, not to field %s", st, i, p.Type(), sf.Name)
			}
		}
	}

	// A JobInfo with every field set, then with each omitempty field zeroed
	// in turn, encodes to json.Marshal's bytes and decodes back.
	var full JobInfo
	jv := reflect.ValueOf(&full).Elem()
	for i := 0; i < jv.NumField(); i++ {
		switch f := jv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(3*i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + float64(i%2)/4) // integral and not
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", i))
		default:
			t.Fatalf("JobInfo.%s: no test value for a %s", jv.Type().Field(i).Name, f.Kind())
		}
	}
	checkJob(t, full)
	for i := 0; i < jv.NumField(); i++ {
		if _, opts, _ := strings.Cut(jv.Type().Field(i).Tag.Get("json"), ","); opts == "omitempty" {
			j := full
			f := reflect.ValueOf(&j).Elem().Field(i)
			f.Set(reflect.Zero(f.Type()))
			checkJob(t, j)
		}
	}
}

func checkJob(t *testing.T, j JobInfo) {
	t.Helper()
	want, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var e encoder
	if e.job(&j); string(e.b) != string(want) {
		t.Fatalf("%+v encodes as %s, json.Marshal %s", j, e.b, want)
	}
	var got JobInfo
	d := decoder{b: want}
	if d.job(&got); !d.end() || !reflect.DeepEqual(got, j) {
		t.Fatalf("%s decodes as %+v (canonical %v), want %+v", want, got, d.end(), j)
	}
}
