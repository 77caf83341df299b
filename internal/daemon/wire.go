package daemon

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// The wire codec. appendRequest and appendResponse write a frame byte for
// byte as json.Encoder.Encode writes it: fields in struct order with their
// omitempty rules, encoding/json's float formatting, HTML-safe strings and
// the trailing newline. decodeRequest and decodeResponse read the canonical
// form those produce in one pass with no reflection, and hand any other
// frame to json.Unmarshal, so the accepted language, every decoded value
// and every error string stay encoding/json's, which the tests use as the
// oracle (FuzzReadFrame, TestPipelinedWireIdentity).
//
// Each protocol type has one codec for both directions. JobInfo, the one
// element whose count in a frame grows with the queue, is written and read
// by straight-line code (encoder.job, decoder.job). Every other type is
// described by its JSON keys (below) and pointers to its fields (its fields
// method), both in struct order, which encoder.object and decoder.object
// walk. The oracle tests hold both kinds to the json tags in protocol.go.

// key is one field of a wire object: its JSON name, the bytes that write
// it after another field, and whether it is left out when zero
// (omitempty).
type key struct {
	name, lit string
	omit      bool
}

// wireKeys lists an object's keys in field order; a trailing '?' marks
// omitempty.
func wireKeys(spec string) []key {
	var ks []key
	for _, f := range strings.Fields(spec) {
		name, omit := strings.CutSuffix(f, "?")
		ks = append(ks, key{name, `,"` + name + `":`, omit})
	}
	return ks
}

var (
	requestKeys  = wireKeys("op nodes? runtime? class? pattern? commshare? name? after? batch? id? node?")
	specKeys     = wireKeys("nodes runtime class? pattern? commshare? name? after?")
	responseKeys = wireKeys("ok error? retryable? id? batch? job? jobs? leaves? machine_nodes? free_nodes? down_nodes? failed_nodes? " +
		"algorithm? virtual_now? completed? total_exec_hours? total_wait_hours? avg_comm_cost? requeues? lost_node_hours? latency?")
	batchResultKeys = wireKeys("id? error?")
	leafKeys        = wireKeys("switch nodes busy comm ratio")
	latencyKeys     = wireKeys("acks wall_p50_ms wall_p95_ms wall_p99_ms starts wait_p50? wait_p95? wait_p99?")
)

func (r *Request) fields() [11]any {
	return [...]any{&r.Op, &r.Nodes, &r.Runtime, &r.Class, &r.Pattern, &r.CommShare, &r.Name, &r.After, &r.Batch, &r.ID, &r.Node}
}

func (s *SubmitSpec) fields() [7]any {
	return [...]any{&s.Nodes, &s.Runtime, &s.Class, &s.Pattern, &s.CommShare, &s.Name, &s.After}
}

func (r *Response) fields() [21]any {
	return [...]any{&r.Ok, &r.Error, &r.Retryable, &r.ID, &r.Batch, &r.Job, &r.Jobs, &r.Leafs,
		&r.MachineNodes, &r.FreeNodes, &r.DownNodes, &r.FailedNodes, &r.Algorithm, &r.VirtualNow,
		&r.Completed, &r.TotalExecHours, &r.TotalWaitHours, &r.AvgCommCost, &r.Requeues, &r.LostNodeHours, &r.Latency}
}

func (r *BatchResult) fields() [2]any { return [...]any{&r.ID, &r.Error} }

func (l *LeafInfo) fields() [5]any { return [...]any{&l.Switch, &l.Nodes, &l.Busy, &l.Comm, &l.Ratio} }

func (l *LatencyStats) fields() [8]any {
	return [...]any{&l.Acks, &l.WallP50Ms, &l.WallP95Ms, &l.WallP99Ms, &l.Starts, &l.WaitP50, &l.WaitP95, &l.WaitP99}
}

// encoder appends one frame. err keeps the first value encoding/json
// refuses, a NaN or infinite float, and the frame is then discarded.
type encoder struct {
	b   []byte
	err error
}

// appendRequest appends r's frame to b. On error b comes back unchanged.
//
//caws:noalloc
func appendRequest(b []byte, r *Request) ([]byte, error) {
	e := encoder{b: b}
	f := r.fields()
	e.object(requestKeys, f[:])
	return e.end(len(b))
}

// appendResponse appends r's frame to b. On error b comes back unchanged.
//
//caws:noalloc
func appendResponse(b []byte, r *Response) ([]byte, error) {
	e := encoder{b: b}
	f := r.fields()
	e.object(responseKeys, f[:])
	return e.end(len(b))
}

func (e *encoder) end(n int) ([]byte, error) {
	if e.err != nil {
		return e.b[:n], e.err
	}
	return append(e.b, '\n'), nil
}

// object writes the fields vals points to under keys, leaving out the zero
// omitempty ones.
func (e *encoder) object(keys []key, vals []any) {
	e.b = append(e.b, '{')
	first := len(e.b)
	for i, v := range vals {
		if keys[i].omit && zero(v) {
			continue
		}
		lit := keys[i].lit
		if len(e.b) == first {
			lit = lit[1:]
		}
		e.b = append(e.b, lit...)
		e.value(v)
	}
	e.b = append(e.b, '}')
}

// zero reports whether the value v points to is its type's zero value.
func zero(v any) bool {
	switch v := v.(type) {
	case *bool:
		return !*v
	case *int:
		return *v == 0
	case *int64:
		return *v == 0
	case *float64:
		return *v == 0
	case *string:
		return *v == ""
	case *[]SubmitSpec:
		return len(*v) == 0
	case *[]BatchResult:
		return len(*v) == 0
	case *[]JobInfo:
		return len(*v) == 0
	case *[]LeafInfo:
		return len(*v) == 0
	case **JobInfo:
		return *v == nil
	case **LatencyStats:
		return *v == nil
	}
	panic("daemon: no wire encoding for a field") // only a fields method can bring one
}

// item writes element i of a list: the '[' before the first, a ',' before
// the others.
func (e *encoder) item(i int, keys []key, vals []any) {
	e.b = append(e.b, "[,"[min(i, 1)])
	e.object(keys, vals)
}

// value writes the value v points to. Every list and pointer field is
// omitempty, so none is empty or nil here.
func (e *encoder) value(v any) {
	switch v := v.(type) {
	case *bool:
		e.b = strconv.AppendBool(e.b, *v)
	case *int:
		e.b = strconv.AppendInt(e.b, int64(*v), 10)
	case *int64:
		e.b = strconv.AppendInt(e.b, *v, 10)
	case *float64:
		e.float(*v)
	case *string:
		e.str(*v)
	case *[]SubmitSpec:
		for i := range *v {
			f := (*v)[i].fields()
			e.item(i, specKeys, f[:])
		}
		e.b = append(e.b, ']')
	case *[]BatchResult:
		for i := range *v {
			f := (*v)[i].fields()
			e.item(i, batchResultKeys, f[:])
		}
		e.b = append(e.b, ']')
	case *[]JobInfo:
		for i := range *v {
			e.b = append(e.b, "[,"[min(i, 1)])
			e.job(&(*v)[i])
		}
		e.b = append(e.b, ']')
	case *[]LeafInfo:
		for i := range *v {
			f := (*v)[i].fields()
			e.item(i, leafKeys, f[:])
		}
		e.b = append(e.b, ']')
	case **JobInfo:
		e.job(*v)
	case **LatencyStats:
		f := (*v).fields()
		e.object(latencyKeys, f[:])
	default:
		panic("daemon: no wire encoding for a field") // only a fields method can bring one
	}
}

// job writes j: its keys in struct order, each with the comma before it,
// and its omitempty fields only when they are not zero.
//
//caws:noalloc
func (e *encoder) job(j *JobInfo) {
	e.int(`{"id":`, j.ID)
	if j.Name != "" {
		e.raw(`,"name":`).str(j.Name)
	}
	e.int(`,"nodes":`, int64(j.Nodes))
	e.raw(`,"class":`).str(j.Class)
	if j.Pattern != "" {
		e.raw(`,"pattern":`).str(j.Pattern)
	}
	e.raw(`,"state":`).str(j.State)
	if j.After != 0 {
		e.int(`,"after":`, j.After)
	}
	e.raw(`,"submit":`).float(j.Submit)
	if j.Start != 0 {
		e.raw(`,"start":`).float(j.Start)
	}
	if j.End != 0 {
		e.raw(`,"end":`).float(j.End)
	}
	if j.Exec != 0 {
		e.raw(`,"exec":`).float(j.Exec)
	}
	if j.BaseRun != 0 {
		e.raw(`,"baserun":`).float(j.BaseRun)
	}
	if j.CostRatio != 0 {
		e.raw(`,"ratio":`).float(j.CostRatio)
	}
	if j.CommCost != 0 {
		e.raw(`,"cost":`).float(j.CommCost)
	}
	if j.NodeList != "" {
		e.raw(`,"nodelist":`).str(j.NodeList)
	}
	if j.Requeues != 0 {
		e.int(`,"requeues":`, int64(j.Requeues))
	}
	e.b = append(e.b, '}')
}

// raw writes lit, the bytes before a value.
func (e *encoder) raw(lit string) *encoder {
	e.b = append(e.b, lit...)
	return e
}

// int writes lit and then v.
func (e *encoder) int(lit string, v int64) {
	e.b = strconv.AppendInt(append(e.b, lit...), v, 10)
}

// float formats as encoding/json does: the shortest 'f' form for
// 1e-6 <= |f| < 1e21, else 'e' with a one-digit negative exponent unpadded.
// An integral |f| < 2^53 is written as its digits: the floats beside it are
// at most 1 away, so only decimals within 1/2 of it round to it, and none
// with fewer significant digits (another integer) is that close; the
// shortest 'f' form is then strconv.AppendInt's. -0, which encoding/json
// writes "-0", takes the general path.
func (e *encoder) float(f float64) {
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		e.b = strconv.AppendInt(e.b, i, 10)
		return
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			_, e.err = json.Marshal(f) // encoding/json's UnsupportedValueError
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str writes a plain printable-ASCII string as is; any other string, and
// one encoding/json would escape for HTML, goes through json.Marshal.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

// decodeRequest decodes one frame into *r, which it zeroes first.
func decodeRequest(data []byte, r *Request) error {
	*r = Request{}
	d := decoder{b: data}
	f := r.fields()
	d.object(requestKeys, f[:])
	if d.end() {
		return nil
	}
	*r = Request{}
	return json.Unmarshal(data, r)
}

// decodeResponse decodes one frame into *r, which it zeroes first.
func decodeResponse(data []byte, r *Response) error {
	*r = Response{}
	d := decoder{b: data}
	f := r.fields()
	d.object(responseKeys, f[:])
	if d.end() {
		return nil
	}
	*r = Response{}
	return json.Unmarshal(data, r)
}

// decoder reads the canonical form: exact-case known keys, each at most
// once; null; numbers strconv parses into the field's type; strings of
// printable ASCII with no backslash; a job object only as encoder.job
// writes it. bad is set at the first byte outside it, and from then on
// every read fails, so the caller falls back.
type decoder struct {
	b   []byte
	i   int
	bad bool
}

// object reads an object into the zero fields vals points to. A null
// value, or a null object, leaves them zero, as it does in encoding/json.
func (d *decoder) object(keys []key, vals []any) {
	if d.literal("null") {
		return
	}
	if !d.skip('{') {
		d.bad = true
		return
	}
	if d.skip('}') {
		return
	}
	var seen uint32
	for next := 0; ; {
		f := lookup(keys, d.str(), next)
		if f < 0 || seen&(1<<f) != 0 || !d.skip(':') {
			d.bad = true
			return
		}
		seen |= 1 << f
		next = f + 1 // keys arrive in struct order
		if !d.literal("null") {
			d.value(vals[f])
		}
		if !d.skip(',') {
			break
		}
	}
	if !d.skip('}') {
		d.bad = true
	}
}

// lookup finds k among keys, searching from index from round the end.
func lookup(keys []key, k []byte, from int) int {
	for j := range keys {
		f := (from + j) % len(keys)
		if string(k) == keys[f].name {
			return f
		}
	}
	return -1
}

// value reads into the zero value v points to.
func (d *decoder) value(v any) {
	switch v := v.(type) {
	case *bool:
		*v = d.boolean()
	case *int:
		*v = int(d.integer(strconv.IntSize))
	case *int64:
		*v = d.integer(64)
	case *float64:
		*v = d.float()
	case *string:
		*v = d.word()
	case *[]SubmitSpec:
		*v = make([]SubmitSpec, 0, d.count(`{"nodes":`))
		for i := 0; d.elem(i); i++ {
			*v = append(*v, SubmitSpec{})
			f := (*v)[i].fields()
			d.object(specKeys, f[:])
		}
	case *[]BatchResult:
		*v = make([]BatchResult, 0, d.count(`{"`))
		for i := 0; d.elem(i); i++ {
			*v = append(*v, BatchResult{})
			f := (*v)[i].fields()
			d.object(batchResultKeys, f[:])
		}
	case *[]JobInfo:
		*v = make([]JobInfo, 0, d.count(`{"id":`))
		for i := 0; d.elem(i); i++ {
			*v = append(*v, JobInfo{})
			d.job(&(*v)[i])
		}
	case *[]LeafInfo:
		*v = []LeafInfo{}
		for i := 0; d.elem(i); i++ {
			*v = append(*v, LeafInfo{})
			f := (*v)[i].fields()
			d.object(leafKeys, f[:])
		}
	case **JobInfo:
		*v = new(JobInfo)
		d.job(*v)
	case **LatencyStats:
		*v = new(LatencyStats)
		f := (*v).fields()
		d.object(latencyKeys, f[:])
	default:
		panic("daemon: no wire decoding for a field") // only a fields method can bring one
	}
}

// count is the capacity a list is made with: how often open, the bytes a
// canonical element of the list starts with, occurs in the rest of the
// frame. Grown by append instead, a 14k-job listing allocates about five
// times its size. No canonical string holds a '"', so in a frame the server
// or a client writes, where nothing after the list opens that way, the
// count is exact (a batch result opens with "id" or "error"). It never
// exceeds the rest of the frame over len(open): a frame buys at most one
// element of capacity per len(open) bytes it sends.
func (d *decoder) count(open string) int {
	return bytes.Count(d.b[d.i:], []byte(open))
}

// job reads a job object as encoder.job writes it: keys in struct order,
// each matched with the comma before it, the omitempty ones where present.
// Anything else, whitespace inside the object, a null or a key out of
// order, is not canonical here, and the frame falls back.
func (d *decoder) job(j *JobInfo) {
	d.need(`{"id":`)
	j.ID = d.integer(64)
	if d.lit(`,"name":`) {
		j.Name = d.word()
	}
	d.need(`,"nodes":`)
	j.Nodes = int(d.integer(strconv.IntSize))
	d.need(`,"class":`)
	j.Class = d.word()
	if d.lit(`,"pattern":`) {
		j.Pattern = d.word()
	}
	d.need(`,"state":`)
	j.State = d.word()
	if d.lit(`,"after":`) {
		j.After = d.integer(64)
	}
	d.need(`,"submit":`)
	j.Submit = d.float()
	if d.lit(`,"start":`) {
		j.Start = d.float()
	}
	if d.lit(`,"end":`) {
		j.End = d.float()
	}
	if d.lit(`,"exec":`) {
		j.Exec = d.float()
	}
	if d.lit(`,"baserun":`) {
		j.BaseRun = d.float()
	}
	if d.lit(`,"ratio":`) {
		j.CostRatio = d.float()
	}
	if d.lit(`,"cost":`) {
		j.CommCost = d.float()
	}
	if d.lit(`,"nodelist":`) {
		j.NodeList = d.word()
	}
	if d.lit(`,"requeues":`) {
		j.Requeues = int(d.integer(strconv.IntSize))
	}
	d.need("}")
}

// elem steps through an array: the first call (i 0) reads the '[', and
// each call reports whether element i follows.
func (d *decoder) elem(i int) bool {
	if i == 0 {
		if !d.skip('[') {
			d.bad = true
			return false
		}
		return !d.skip(']')
	}
	if d.skip(',') {
		return true
	}
	if !d.skip(']') {
		d.bad = true
	}
	return false
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// skip reads byte c after any whitespace, if it is next.
func (d *decoder) skip(c byte) bool {
	d.ws()
	if d.bad || d.i >= len(d.b) || d.b[d.i] != c {
		return false
	}
	d.i++
	return true
}

// literal reads the word s after any whitespace, if it is next.
func (d *decoder) literal(s string) bool {
	d.ws()
	return d.lit(s)
}

// lit reads s if it is next.
func (d *decoder) lit(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// need reads s, or marks the frame bad.
func (d *decoder) need(s string) {
	if !d.lit(s) {
		d.bad = true
	}
}

func (d *decoder) boolean() bool {
	if d.literal("true") {
		return true
	}
	if !d.literal("false") {
		d.bad = true
	}
	return false
}

// str reads a string and returns its bytes, which alias the frame. The
// first '"' ends it; a string that escapes one holds a backslash before
// it, which is not canonical.
func (d *decoder) str() []byte {
	if !d.skip('"') {
		d.bad = true
		return nil
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		d.bad = true
		return nil
	}
	s := d.b[d.i : d.i+n]
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '\\' {
			d.bad = true
			return nil
		}
	}
	d.i += n + 1
	return s
}

// word reads a string. A word of the closed vocabulary an op, class,
// pattern or state carries is handed out as the constant; any other string
// is a copy that does not alias the frame.
func (d *decoder) word() string {
	switch b := d.str(); string(b) {
	case "submit":
		return "submit"
	case "submit_batch":
		return "submit_batch"
	case "status":
		return "status"
	case "queue":
		return "queue"
	case "running":
		return "running"
	case "info":
		return "info"
	case "stats":
		return "stats"
	case "cancel":
		return "cancel"
	case "drain":
		return "drain"
	case "resume":
		return "resume"
	case "fail":
		return "fail"
	case "shutdown":
		return "shutdown"
	case "comm":
		return "comm"
	case "compute":
		return "compute"
	case "RD":
		return "RD"
	case "RHVD":
		return "RHVD"
	case "Binomial":
		return "Binomial"
	case "Ring":
		return "Ring"
	case "Stencil":
		return "Stencil"
	case "Alltoall":
		return "Alltoall"
	case "queued":
		return "queued"
	case "completed":
		return "completed"
	case "cancelled":
		return "cancelled"
	default:
		return string(b)
	}
}

// number reads the bytes of a JSON number.
func (d *decoder) number() []byte {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else if !d.digits() {
		d.bad = true
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digits() {
			d.bad = true
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			d.bad = true
		}
	}
	return d.b[start:d.i]
}

// digits reads a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// integer reads a number that strconv.ParseInt takes at bitSize, which is
// what encoding/json accepts for an integer field.
func (d *decoder) integer(bitSize int) int64 {
	if v, ok := d.small(); ok && v>>(bitSize-1) == 0 {
		return v
	}
	v, err := strconv.ParseInt(string(d.number()), 10, bitSize)
	if err != nil {
		d.bad = true
	}
	return v
}

func (d *decoder) float() float64 {
	if v, ok := d.small(); ok {
		return float64(v)
	}
	v, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.bad = true
	}
	return v
}

// small reads a number that is an unsigned integer of at most 15 digits,
// by accumulation: below 10^15 < 2^53 it is exact as an int64 and as a
// float64, so it is the value strconv parses. Any other number, a leading
// zero before a digit included, is left unread for number.
func (d *decoder) small() (int64, bool) {
	d.ws()
	i, v := d.i, int64(0)
	for ; i < len(d.b) && i-d.i <= 15 && d.b[i]-'0' <= 9; i++ {
		v = v*10 + int64(d.b[i]-'0')
	}
	if n := i - d.i; n == 0 || n > 15 || n > 1 && d.b[d.i] == '0' ||
		i < len(d.b) && (d.b[i] == '.' || d.b[i] == 'e' || d.b[i] == 'E') {
		return 0, false
	}
	d.i = i
	return v, true
}

// end reports whether the frame was canonical to its last byte.
func (d *decoder) end() bool {
	d.ws()
	return !d.bad && d.i == len(d.b)
}
