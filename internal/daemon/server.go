package daemon

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// DefaultQueueDepth is the per-connection bounded request queue: frames
// arriving while this many ops are already pending get a typed retryable
// busy response instead of queueing without bound.
const DefaultQueueDepth = 128

// Server exposes a Daemon over a JSON-lines TCP protocol. Each
// connection is a three-stage pipeline (reader → engine dispatcher →
// writer) so a client may stream many requests without waiting for acks;
// the engine drains all pending ops per wakeup and amortises one
// scheduling pass over each drained batch. Responses are written in
// request order through a buffered writer (coalesced syscalls).
type Server struct {
	d     *Daemon
	ln    net.Listener
	depth int

	mu     sync.Mutex
	conns  map[net.Conn]*serverConn
	closed bool
}

// NewServer wraps a daemon for network serving.
func NewServer(d *Daemon) *Server {
	return &Server{d: d, depth: DefaultQueueDepth, conns: make(map[net.Conn]*serverConn)}
}

// SetQueueDepth overrides the per-connection bounded queue depth (the
// backpressure threshold). Call before Serve.
func (s *Server) SetQueueDepth(n int) {
	if n > 0 {
		s.depth = n
	}
}

// Listen starts listening on addr (e.g. "127.0.0.1:0") without serving yet.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address (after Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Close. Connections are concurrent with
// each other; within a connection requests are pipelined but responses
// stay in request order.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("daemon: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := newServerConn(s, conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = c
		s.mu.Unlock()
		go c.run()
	}
}

// Close stops the listener, drains in-flight responses on every
// connection (bounded wait), closes the connections, and stops the
// daemon engine. Safe to call concurrently and repeatedly.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock every reader without tearing the connection down: accepted
	// requests still execute, and their responses still flush, before the
	// write side goes away. This is what makes shutdown drain in-flight
	// work instead of racing it (the old handler closed peer connections
	// from a goroutine mid-response).
	for _, c := range conns {
		c.stopRead()
	}
	deadline := time.After(3 * time.Second)
	for _, c := range conns {
		select {
		case <-c.done:
		case <-deadline:
		}
	}
	for _, c := range conns {
		c.conn.Close()
	}
	s.d.Close()
}

// serverConn is one connection's pipeline. A fixed ring of pendingOp
// slots is threaded through three index channels: free → (reader) →
// execQ → (dispatcher) → writeQ → (writer) → free. Slot indices, not
// pointers, cross the channels; each stage owns a slot exclusively while
// holding its index, so no slot is accessed concurrently. Channel
// capacities equal the slot count, so only the reader's free-slot take
// ever blocks (natural flow control when a client outruns its reads).
type serverConn struct {
	s    *Server
	conn net.Conn

	depth  int
	slots  []pendingOp
	free   chan int
	execQ  chan int
	writeQ chan int

	bw     *bufio.Writer
	wbuf   []byte // the frame being written, reused
	encErr error

	done chan struct{}
}

func newServerConn(s *Server, conn net.Conn) *serverConn {
	n := 2 * s.depth
	c := &serverConn{
		s:      s,
		conn:   conn,
		depth:  s.depth,
		slots:  make([]pendingOp, n),
		free:   make(chan int, n),
		execQ:  make(chan int, n),
		writeQ: make(chan int, n),
		done:   make(chan struct{}),
	}
	c.bw = bufio.NewWriter(conn)
	for i := 0; i < n; i++ {
		c.free <- i
	}
	return c
}

// run drives the pipeline: dispatcher and writer in their own
// goroutines, the reader inline. Stage teardown cascades through channel
// closes (reader closes execQ, dispatcher closes writeQ, writer signals
// done), so by the time run returns every accepted request has been
// answered or the connection is dead.
func (c *serverConn) run() {
	go c.dispatch()
	go c.write()
	c.read()
	<-c.done
	c.s.mu.Lock()
	delete(c.s.conns, c.conn)
	c.s.mu.Unlock()
	c.conn.Close()
}

// stopRead unblocks the reader without closing the write side.
func (c *serverConn) stopRead() {
	if tc, ok := c.conn.(*net.TCPConn); ok {
		tc.CloseRead()
		return
	}
	c.conn.SetReadDeadline(time.Now())
}

// read decodes frames into pipeline slots until the connection's read
// side ends. Malformed frames and backpressure rejections become
// prefilled pass ops so their responses keep arrival order.
func (c *serverConn) read() {
	defer close(c.execQ)
	br := bufio.NewReader(c.conn)
	var buf []byte
	for {
		line, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = line
		if len(line) == 0 {
			continue
		}
		idx := <-c.free
		op := &c.slots[idx]
		*op = pendingOp{recv: c.s.d.clock()}
		if uerr := decodeRequest(line, &op.req); uerr != nil {
			op.pass = true
			op.resp = Response{Error: "malformed request: " + uerr.Error()}
		} else if len(c.execQ) >= c.depth {
			op.pass = true
			op.resp = Response{Error: BusyError, Retryable: true}
		}
		c.execQ <- idx
	}
}

// dispatch drains every op pending on execQ into one engine batch — the
// amortisation point: a burst of N pipelined submits costs one
// scheduling pass — then forwards the indices to the writer in order.
func (c *serverConn) dispatch() {
	defer close(c.writeQ)
	idxs := make([]int, 0, len(c.slots))
	batch := make([]*pendingOp, 0, len(c.slots))
	for {
		idx, ok := <-c.execQ
		if !ok {
			return
		}
		idxs, batch = idxs[:0], batch[:0]
		idxs = append(idxs, idx)
		for draining := true; draining; {
			select {
			case more, ok2 := <-c.execQ:
				if !ok2 {
					draining = false
					break
				}
				idxs = append(idxs, more)
			default:
				draining = false
			}
		}
		for _, i := range idxs {
			batch = append(batch, &c.slots[i])
		}
		c.s.d.execBatch(batch)
		for _, i := range idxs {
			c.writeQ <- i
		}
	}
}

// write encodes responses in order through the buffered writer, flushing
// only when writeQ goes idle (coalesced syscalls under pipelined load).
func (c *serverConn) write() {
	defer close(c.done)
	open := true
	for open {
		idx, ok := <-c.writeQ
		if !ok {
			break
		}
		c.emit(idx)
		for coalescing := true; coalescing; {
			select {
			case idx, ok = <-c.writeQ:
				if !ok {
					open, coalescing = false, false
					break
				}
				c.emit(idx)
			default:
				coalescing = false
			}
		}
		c.bw.Flush()
	}
	c.bw.Flush()
}

// emit writes one response, or the frame the engine rendered for it, and
// recycles its slot. After an encode error
// the connection is poisoned (unblocking the reader) but slots keep
// recycling so the pipeline drains instead of deadlocking. A successful
// shutdown ack flushes first, then triggers the server-wide close — the
// client has its response bytes before any connection is torn down.
func (c *serverConn) emit(idx int) {
	op := &c.slots[idx]
	shutdown := op.req.Op == "shutdown" && op.resp.Ok && !op.pass
	if c.encErr == nil {
		var err error
		if op.frame != nil {
			_, err = c.bw.Write(op.frame)
		} else if c.wbuf, err = appendResponse(c.wbuf[:0], &op.resp); err == nil {
			_, err = c.bw.Write(c.wbuf)
		}
		if err != nil {
			c.encErr = err
			c.conn.Close()
		}
	}
	*op = pendingOp{}
	c.free <- idx
	if shutdown {
		c.bw.Flush()
		go c.s.Close()
	}
}

// readFrame reads one newline-terminated frame, reusing buf's storage
// across calls (pass the previous return value back in). The returned
// slice excludes the line terminator and stays valid until the next
// call. Unlike bufio.Scanner there is no fixed frame-size ceiling: a
// frame longer than the bufio.Reader's window accumulates by
// self-append, so arbitrarily large listings survive and the steady
// state allocates nothing once buf has grown to the connection's
// largest frame.
//
//caws:noalloc
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if err == nil {
			return trimEOL(buf), nil
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF && len(buf) > 0 {
			// Final frame without a terminator still counts as a frame;
			// the next call reports the EOF.
			return trimEOL(buf), nil
		}
		return buf[:0], err
	}
}

// trimEOL strips trailing newline/carriage-return bytes.
func trimEOL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// Retry and backoff of Client.Do's handling of busy responses.
const (
	clientMaxRetries  = 8
	clientBaseBackoff = time.Millisecond
	clientMaxBackoff  = 200 * time.Millisecond
)

// Client is a JSON-lines client for the daemon protocol: a Pipe used one
// request at a time. Do is synchronous (one request, one response); busy
// backpressure responses are retried with exponential backoff before
// surfacing. For pipelined streams use Pipe.
type Client struct {
	p  *Pipe
	mu sync.Mutex
}

// Dial connects to a daemon.
func Dial(addr string) (*Client, error) {
	p, err := DialPipe(addr)
	if err != nil {
		return nil, err
	}
	return &Client{p: p}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.p.Close() }

// Do sends one request and reads its response. Responses with no frame
// limit: listings of any size are reassembled. Retryable busy responses
// (queue backpressure) are resent after exponential backoff, from
// clientBaseBackoff doubling up to clientMaxBackoff, at most
// clientMaxRetries times, before being returned as errors.
func (c *Client) Do(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	backoff := clientBaseBackoff
	for attempt := 0; ; attempt++ {
		if err := c.p.Send(req); err != nil {
			return Response{}, err
		}
		if err := c.p.Flush(); err != nil {
			return Response{}, err
		}
		resp, err := c.p.Recv()
		if err == io.EOF {
			return Response{}, fmt.Errorf("daemon: connection closed")
		}
		if err != nil {
			return Response{}, err
		}
		if resp.Retryable && attempt < clientMaxRetries {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > clientMaxBackoff {
				backoff = clientMaxBackoff
			}
			continue
		}
		if !resp.Ok && resp.Error != "" {
			return resp, fmt.Errorf("daemon: %s", resp.Error)
		}
		return resp, nil
	}
}

// Submit submits a job and returns its ID.
func (c *Client) Submit(req Request) (int64, error) {
	req.Op = "submit"
	resp, err := c.Do(req)
	return resp.ID, err
}

// SubmitBatch submits many jobs in one frame; the daemon admits them in
// order under a single scheduling pass and returns per-item results.
func (c *Client) SubmitBatch(specs []SubmitSpec) ([]BatchResult, error) {
	resp, err := c.Do(Request{Op: "submit_batch", Batch: specs})
	if err != nil {
		return nil, err
	}
	return resp.Batch, nil
}

// Status fetches one job's state.
func (c *Client) Status(id int64) (*JobInfo, error) {
	resp, err := c.Do(Request{Op: "status", ID: id})
	if err != nil {
		return nil, err
	}
	return resp.Job, nil
}

// Cancel cancels a job.
func (c *Client) Cancel(id int64) error {
	_, err := c.Do(Request{Op: "cancel", ID: id})
	return err
}

// Queue lists queued jobs.
func (c *Client) Queue() ([]JobInfo, error) {
	resp, err := c.Do(Request{Op: "queue"})
	return resp.Jobs, err
}

// Running lists running jobs.
func (c *Client) Running() ([]JobInfo, error) {
	resp, err := c.Do(Request{Op: "running"})
	return resp.Jobs, err
}

// Info fetches cluster-wide state.
func (c *Client) Info() (Response, error) {
	return c.Do(Request{Op: "info"})
}

// Stats fetches completed-job aggregates.
func (c *Client) Stats() (Response, error) {
	return c.Do(Request{Op: "stats"})
}

// Drain marks a node ineligible for new allocations.
func (c *Client) Drain(node string) error {
	_, err := c.Do(Request{Op: "drain", Node: node})
	return err
}

// Resume returns a drained node to service.
func (c *Client) Resume(node string) error {
	_, err := c.Do(Request{Op: "resume", Node: node})
	return err
}

// Fail takes a node down hard; a job running on it is killed and
// requeued. Returns the killed job's ID (0 when the node was free).
func (c *Client) Fail(node string) (int64, error) {
	resp, err := c.Do(Request{Op: "fail", Node: node})
	return resp.ID, err
}

// Shutdown asks the daemon to stop. The server flushes the ack (and
// every response ahead of it) before closing connections.
func (c *Client) Shutdown() error {
	_, err := c.Do(Request{Op: "shutdown"})
	return err
}

// Pipe is a pipelined protocol connection: Send enqueues frames into a
// buffered writer without waiting, Recv reads responses in request
// order. One goroutine may Send while another Recvs — that is the whole
// point — but each side is single-goroutine. Used by the end-to-end
// benchmark and the pipelining tests; Client remains the simple synchronous
// surface.
type Pipe struct {
	conn net.Conn
	bw   *bufio.Writer
	wbuf []byte
	br   *bufio.Reader
	rbuf []byte
}

// DialPipe opens a pipelined connection.
func DialPipe(addr string) (*Pipe, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Pipe{conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}, nil
}

// Send buffers one request; call Flush to put buffered frames on the
// wire.
func (p *Pipe) Send(req Request) error {
	var err error
	if p.wbuf, err = appendRequest(p.wbuf[:0], &req); err != nil {
		return err
	}
	_, err = p.bw.Write(p.wbuf)
	return err
}

// Flush writes buffered frames to the connection.
func (p *Pipe) Flush() error { return p.bw.Flush() }

// Recv reads the next response in request order.
func (p *Pipe) Recv() (Response, error) {
	line, err := readFrame(p.br, p.rbuf)
	if err != nil {
		return Response{}, err
	}
	p.rbuf = line
	var resp Response
	if err := decodeResponse(line, &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// Close closes the connection (flushing buffered frames first).
func (p *Pipe) Close() error {
	p.bw.Flush()
	return p.conn.Close()
}
