package cran

// The server side of the wirev2 binary protocol: a frame reader that
// dispatches requests without blocking on their epochs, and a per-connection
// writer goroutine that serializes response frames back onto the wire. The
// reader never waits for an answer — a pending's sink carries the frame's
// request ID, so one connection holds many in-flight requests across many
// epochs and responses complete out of order. See wirev2.go for the codec
// and DESIGN.md §13 for the full specification.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// framePool recycles encoded-frame buffers between the response encoders
// (solver workers, the reader's immediate rejections) and the connection
// writers that hand them to the kernel.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// frameBuf wraps the byte slice so pool round-trips don't allocate an
// interface box per frame.
type frameBuf struct{ b []byte }

// binWriterQueue bounds the encoded response frames queued per connection.
// A client that stops reading fills its queue and is disconnected (slow-
// consumer protection) rather than blocking a solver worker on its socket.
const binWriterQueue = 256

// binWriter serializes response frames onto one binary connection. Frames
// are enqueued (never blocking the caller) and written by a dedicated
// goroutine, so solver workers finish their epochs at memory speed however
// slow the client's socket drains.
type binWriter struct {
	srv  *Server
	conn net.Conn
	ch   chan *frameBuf
	dead chan struct{} // closed: stop accepting frames, drain, exit
	done chan struct{} // closed when the writer goroutine has exited
	once sync.Once
}

func newBinWriter(s *Server, conn net.Conn) *binWriter {
	return &binWriter{
		srv:  s,
		conn: conn,
		ch:   make(chan *frameBuf, binWriterQueue),
		dead: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// kill stops the writer: queued frames are still flushed, later sends are
// dropped. Idempotent and safe from any goroutine.
func (w *binWriter) kill() { w.once.Do(func() { close(w.dead) }) }

// send encodes resp under the given request ID and enqueues the frame. On a
// full queue the connection is killed: a client that cannot drain its
// responses must not pin solver workers or unbounded memory.
func (w *binWriter) send(id uint64, resp *OffloadResponse) {
	f := framePool.Get().(*frameBuf)
	f.b = appendResponseFrame(f.b[:0], id, resp)
	select {
	case w.ch <- f:
	case <-w.dead:
		framePool.Put(f)
	default:
		framePool.Put(f)
		w.kill()
		_ = w.conn.Close()
	}
}

// loop drains the frame queue onto the connection until killed, then
// flushes whatever is already queued (the connection may be gone by then —
// those writes fail fast) and exits.
func (w *binWriter) loop() {
	defer close(w.done)
	defer w.srv.wg.Done()
	for {
		select {
		case f := <-w.ch:
			if !w.write(f) {
				return
			}
		case <-w.dead:
			for {
				select {
				case f := <-w.ch:
					if !w.write(f) {
						return
					}
				default:
					return
				}
			}
		case <-w.srv.quit:
			w.kill()
		}
	}
}

// write puts one frame on the wire and recycles its buffer; a write error
// kills the writer. The frame is counted before the write, so the client
// can never read a frame the wire counters do not yet include (DESIGN.md
// §10).
func (w *binWriter) write(f *frameBuf) bool {
	w.srv.stats.frameWritten(true, len(f.b))
	_, err := w.conn.Write(f.b)
	framePool.Put(f)
	if err != nil {
		w.kill()
		return false
	}
	return true
}

// serveBinary reads wirev2 frames from one negotiated connection. Request
// frames are dispatched without waiting for their epochs; responses flow
// back through the connection's writer goroutine keyed by request ID.
// Malformed frames are answered and the connection kept (length-prefixed
// framing preserves the stream boundary); an oversize or lying length word
// poisons the boundary itself, so those close the connection after a typed
// answer. Closing the connection abandons its in-flight requests: their
// epochs still solve, but the response frames are dropped at the writer.
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader) {
	var hs [handshakeLen]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return
	}
	s.stats.bytesRead.Add(uint64(handshakeLen))
	w := newBinWriter(s, conn)
	s.wg.Add(1)
	go w.loop()
	// The writer outlives this reader just long enough to flush queued
	// frames; serveConn's deferred conn.Close waits for it.
	defer func() {
		w.kill()
		<-w.done
	}()
	if v := hs[len(wireMagic)]; v != WireVersion {
		s.stats.requestRejected()
		w.send(0, &OffloadResponse{
			Version: ProtocolVersion,
			Error:   fmt.Sprintf("%s: handshake version %d, want %d", ErrUnsupportedVersion.Error(), v, WireVersion),
			Code:    CodeUnsupportedVersion,
		})
		return
	}
	var hdr [4]byte
	var big []byte // spill buffer for frames larger than the read buffer
	for {
		if s.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > s.cfg.MaxLineBytes {
			// The length word itself is untrusted now; answer and close.
			s.stats.oversizeRequest()
			w.send(0, &OffloadResponse{
				Version: ProtocolVersion,
				Error:   fmt.Sprintf("%s: frame of %d bytes exceeds %d", ErrFrameTooLarge.Error(), n, s.cfg.MaxLineBytes),
				Code:    CodeTooLarge,
			})
			return
		}
		// Zero-copy fast path: frames that fit the connection's read buffer
		// are decoded in place and discarded; larger ones spill into a
		// reusable buffer. Decoding copies everything that outlives the
		// frame (strings), so the slice never escapes this iteration.
		var payload []byte
		var err error
		if n <= br.Size() {
			if payload, err = br.Peek(n); err != nil {
				return
			}
		} else {
			if cap(big) < n {
				big = make([]byte, n)
			}
			payload = big[:n]
			if _, err = io.ReadFull(br, payload); err != nil {
				return
			}
		}
		s.stats.frameRead(true, 4+n)
		ok := s.handleFrame(payload, w)
		if n <= br.Size() {
			if _, err := br.Discard(n); err != nil {
				return
			}
		}
		if !ok || s.isClosed() {
			return
		}
	}
}

// handleFrame decodes and dispatches one binary frame payload. It reports
// whether the connection should keep being served.
func (s *Server) handleFrame(payload []byte, w *binWriter) bool {
	frameType, id, body, err := decodeFramePayload(payload)
	if err != nil {
		s.stats.requestRejected()
		w.send(0, &OffloadResponse{Version: ProtocolVersion, Error: err.Error()})
		return true
	}
	if frameType != frameOffloadReq && frameType != frameHealthReq {
		s.stats.requestRejected()
		w.send(id, &OffloadResponse{
			Version: ProtocolVersion,
			Error:   fmt.Sprintf("cran: unexpected response frame 0x%02x from client", frameType),
		})
		return true
	}
	var req OffloadRequest
	if err := decodeRequestBody(frameType, body, &req); err != nil {
		s.stats.requestRejected()
		w.send(id, &OffloadResponse{Version: ProtocolVersion, Error: "malformed request: " + err.Error()})
		return true
	}
	s.applyDefaults(&req)
	if err := req.Validate(); err != nil {
		s.stats.requestRejected()
		w.send(id, &OffloadResponse{Version: ProtocolVersion, UserID: req.UserID, Error: err.Error(), Code: rejectionCode(err)})
		return true
	}
	if req.Type == TypeHealth {
		resp := s.handleHealth(req)
		w.send(id, &resp)
		return true
	}
	p := pending{req: req, sink: w, sinkID: id, arrived: time.Now()}
	if resp, ok := s.admit(&p); !ok {
		w.send(id, &resp)
	}
	return true
}
