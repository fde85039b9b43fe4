package runtime

import (
	"sync"
	"sync/atomic"

	"murmuration/internal/rpcx"
)

// A wireBuf is memory one exec.block round trip lends out: the request frame
// a run is encoded into, or the buffer a reply is read into (rpcx CallFrom's
// dst). Who holds it and when it goes back:
//
//   - A request frame is held by remoteRun, which encodes it, and by every
//     attempt that carries it — the primary call and a hedge alike. Each
//     holder releases it once; the last release returns it, so an abandoned
//     hedge loser that is still writing, or about to re-write it on a retry,
//     never sees it reused under it.
//   - A reply buffer belongs to one attempt. The winning attempt hands it to
//     remoteRun, which decodes the tile out of it and releases it; any other
//     attempt releases its own when its call returns, not before.
//
// A released buffer is scribbled when rpcx.ScribblePayloads is on, so a
// holder that outlived its release reads garbage, not plausible bytes.
type wireBuf struct {
	b    []byte
	refs atomic.Int32
	pool *wirePool
}

// hold adds one holder.
func (w *wireBuf) hold() { w.refs.Add(1) }

// release drops one holder; the last one returns the buffer to its pool.
func (w *wireBuf) release() {
	if w.refs.Add(-1) == 0 {
		rpcx.Scribble(w.b[:cap(w.b)])
		w.pool.put(w)
	}
}

// wirePool keeps a scheduler's idle wire buffers, most recently used last.
// Like the supernet's workspaces it holds as many as were ever in flight at
// once, each as large as the largest use it has had.
type wirePool struct {
	mu   sync.Mutex
	idle []*wireBuf
}

// get returns a buffer of at least n bytes' capacity, held once, empty.
func (p *wirePool) get(n int) *wireBuf {
	p.mu.Lock()
	var w *wireBuf
	if k := len(p.idle); k > 0 {
		w = p.idle[k-1]
		p.idle = p.idle[:k-1]
	}
	p.mu.Unlock()
	if w == nil {
		w = &wireBuf{pool: p}
	}
	if cap(w.b) < n {
		w.b = make([]byte, 0, n)
	}
	w.b = w.b[:0]
	w.refs.Store(1)
	return w
}

func (p *wirePool) put(w *wireBuf) {
	p.mu.Lock()
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}
