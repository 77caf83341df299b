package daemon

import (
	"reflect"
	"strings"
	"testing"
)

// TestWireKeysMatchTags holds each protocol type's key list and fields
// method to its struct: one key per field, in field order, with the json
// tag's name and omitempty, and a pointer to that field. A field added to
// protocol.go without its wire entry fails here, not on some later frame.
func TestWireKeysMatchTags(t *testing.T) {
	var (
		req  Request
		spec SubmitSpec
		resp Response
		res  BatchResult
		job  JobInfo
		leaf LeafInfo
		lat  LatencyStats
	)
	fReq, fSpec, fResp, fRes := req.fields(), spec.fields(), resp.fields(), res.fields()
	fJob, fLeaf, fLat := job.fields(), leaf.fields(), lat.fields()
	for _, c := range []struct {
		v    any
		keys []key
		ptrs []any
	}{
		{&req, requestKeys, fReq[:]},
		{&spec, specKeys, fSpec[:]},
		{&resp, responseKeys, fResp[:]},
		{&res, batchResultKeys, fRes[:]},
		{&job, jobKeys, fJob[:]},
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
}
