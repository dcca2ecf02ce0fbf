package wire

import (
	"encoding/binary"

	"repro/internal/alphamap"
	"repro/internal/chat"
	"repro/internal/counter"
	"repro/internal/ewflag"
	"repro/internal/gmap"
	"repro/internal/gset"
	"repro/internal/lwwreg"
	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/queue"
)

// innerCodec is what every codec of this package implements beyond
// Encode and Decode: the exact encoded size of a state, and the encoding
// itself written into a Writer that already has room for it. Encode is
// the two together, so each encoding fills one exact-size buffer; AlphaMap
// uses the pair to write its bindings' states in place inside its own.
// The Writer passes by value, not by pointer, so calls through the
// interface do not move it to the heap.
type innerCodec[S any] interface {
	Codec[S]
	size(S) int
	put(Writer, S) Writer
}

// sized returns a Writer with room for exactly n bytes.
func sized(n int) Writer {
	var w Writer
	w.Grow(n)
	return w
}

// IncCounter is the codec for the increment-only counter.
type IncCounter struct{}

// Encode serializes the counter.
func (c IncCounter) Encode(s int64) []byte { return c.put(sized(c.size(s)), s).buf }

func (IncCounter) size(int64) int { return 8 }

func (IncCounter) put(w Writer, s int64) Writer {
	w.PutInt64(s)
	return w
}

// Decode deserializes the counter.
func (IncCounter) Decode(b []byte) (int64, error) {
	r := NewReader(b)
	v := r.Int64()
	return v, r.Close()
}

// PNCounter is the codec for the PN-counter.
type PNCounter struct{}

// Encode serializes the PN-counter.
func (c PNCounter) Encode(s counter.PNState) []byte { return c.put(sized(c.size(s)), s).buf }

func (PNCounter) size(counter.PNState) int { return 16 }

func (PNCounter) put(w Writer, s counter.PNState) Writer {
	w.PutInt64(s.P)
	w.PutInt64(s.N)
	return w
}

// Decode deserializes the PN-counter.
func (PNCounter) Decode(b []byte) (counter.PNState, error) {
	r := NewReader(b)
	s := counter.PNState{P: r.Int64(), N: r.Int64()}
	return s, r.Close()
}

// DWFlag is the codec for the disable-wins flag.
type DWFlag struct{}

// Encode serializes the flag.
func (c DWFlag) Encode(s ewflag.DWState) []byte { return c.put(sized(c.size(s)), s).buf }

func (DWFlag) size(ewflag.DWState) int { return 9 }

func (DWFlag) put(w Writer, s ewflag.DWState) Writer {
	w.PutInt64(s.Disables)
	w.PutBool(s.Flag)
	return w
}

// Decode deserializes the flag.
func (DWFlag) Decode(b []byte) (ewflag.DWState, error) {
	r := NewReader(b)
	s := ewflag.DWState{Disables: r.Int64(), Flag: r.Bool()}
	return s, r.Close()
}

// EWFlag is the codec for the enable-wins flag.
type EWFlag struct{}

// Encode serializes the flag.
func (c EWFlag) Encode(s ewflag.State) []byte { return c.put(sized(c.size(s)), s).buf }

func (EWFlag) size(ewflag.State) int { return 9 }

func (EWFlag) put(w Writer, s ewflag.State) Writer {
	w.PutInt64(s.Enables)
	w.PutBool(s.Flag)
	return w
}

// Decode deserializes the flag.
func (EWFlag) Decode(b []byte) (ewflag.State, error) {
	r := NewReader(b)
	s := ewflag.State{Enables: r.Int64(), Flag: r.Bool()}
	return s, r.Close()
}

// LWWReg is the codec for the last-writer-wins register.
type LWWReg struct{}

// Encode serializes the register.
func (c LWWReg) Encode(s lwwreg.State) []byte { return c.put(sized(c.size(s)), s).buf }

func (LWWReg) size(lwwreg.State) int { return 16 }

func (LWWReg) put(w Writer, s lwwreg.State) Writer {
	w.PutTimestamp(s.T)
	w.PutInt64(s.V)
	return w
}

// Decode deserializes the register.
func (LWWReg) Decode(b []byte) (lwwreg.State, error) {
	r := NewReader(b)
	s := lwwreg.State{T: r.Timestamp(), V: r.Int64()}
	return s, r.Close()
}

// GSet is the codec for the grow-only set.
type GSet struct{}

// Encode serializes the set.
func (c GSet) Encode(s gset.State) []byte { return c.put(sized(c.size(s)), s).buf }

func (GSet) size(s gset.State) int { return 4 + 8*len(s) }

func (GSet) put(w Writer, s gset.State) Writer {
	w.PutLen(len(s))
	for _, e := range s {
		w.PutInt64(e)
	}
	return w
}

// Decode deserializes the set.
func (GSet) Decode(b []byte) (gset.State, error) {
	r := NewReader(b)
	n := r.Len(8)
	s := make(gset.State, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, r.Int64())
	}
	return s, r.Close()
}

// GMap is the codec for the grow-only map.
type GMap struct{}

// Encode serializes the map.
func (c GMap) Encode(s gmap.State) []byte { return c.put(sized(c.size(s)), s).buf }

func (GMap) size(s gmap.State) int {
	n := 4
	for _, e := range s {
		n += 4 + len(e.K) + 16
	}
	return n
}

func (GMap) put(w Writer, s gmap.State) Writer {
	w.PutLen(len(s))
	for _, e := range s {
		w.PutString(e.K)
		w.PutTimestamp(e.T)
		w.PutInt64(e.V)
	}
	return w
}

// Decode deserializes the map.
func (GMap) Decode(b []byte) (gmap.State, error) {
	r := NewReader(b)
	n := r.Len(20)
	s := make(gmap.State, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, gmap.Entry{K: r.String(), T: r.Timestamp(), V: r.Int64()})
	}
	return s, r.Close()
}

// MLog is the codec for the mergeable log.
type MLog struct{}

// Encode serializes the log.
func (c MLog) Encode(s mlog.State) []byte { return c.put(sized(c.size(s)), s).buf }

func (MLog) size(s mlog.State) int {
	n := 4
	for _, e := range s {
		n += 8 + 4 + len(e.Msg)
	}
	return n
}

func (MLog) put(w Writer, s mlog.State) Writer {
	w.PutLen(len(s))
	for _, e := range s {
		w.PutTimestamp(e.T)
		w.PutString(e.Msg)
	}
	return w
}

// Decode deserializes the log.
func (MLog) Decode(b []byte) (mlog.State, error) {
	r := NewReader(b)
	n := r.Len(12)
	s := make(mlog.State, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, mlog.Entry{T: r.Timestamp(), Msg: r.String()})
	}
	return s, r.Close()
}

func putPairs(w Writer, ps []orset.Pair) Writer {
	w.PutLen(len(ps))
	for _, p := range ps {
		w.PutInt64(p.E)
		w.PutTimestamp(p.T)
	}
	return w
}

func decodePairs(r *Reader) []orset.Pair {
	n := r.Len(16)
	ps := make([]orset.Pair, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, orset.Pair{E: r.Int64(), T: r.Timestamp()})
	}
	return ps
}

// OrSet is the codec for the unoptimized OR-set.
type OrSet struct{}

// Encode serializes the set.
func (c OrSet) Encode(s orset.State) []byte { return c.put(sized(c.size(s)), s).buf }

func (OrSet) size(s orset.State) int { return 4 + 16*len(s) }

func (OrSet) put(w Writer, s orset.State) Writer { return putPairs(w, s) }

// Decode deserializes the set.
func (OrSet) Decode(b []byte) (orset.State, error) {
	r := NewReader(b)
	ps := decodePairs(r)
	return orset.State(ps), r.Close()
}

// OrSetSpace is the codec for the space-efficient OR-set.
type OrSetSpace struct{}

// Encode serializes the set.
func (c OrSetSpace) Encode(s orset.SpaceState) []byte { return c.put(sized(c.size(s)), s).buf }

func (OrSetSpace) size(s orset.SpaceState) int { return 4 + 16*len(s) }

func (OrSetSpace) put(w Writer, s orset.SpaceState) Writer { return putPairs(w, s) }

// Decode deserializes the set.
func (OrSetSpace) Decode(b []byte) (orset.SpaceState, error) {
	r := NewReader(b)
	ps := decodePairs(r)
	return orset.SpaceState(ps), r.Close()
}

// OrSetSpaceTime is the codec for the tree-backed OR-set. The tree is
// serialized as its in-order pair sequence and rebuilt perfectly balanced,
// which preserves observable behaviour (the paper's convergence modulo
// observable behaviour makes tree shape unobservable).
type OrSetSpaceTime struct{}

// Encode serializes the set.
func (c OrSetSpaceTime) Encode(s orset.TreeState) []byte { return c.put(sized(c.size(s)), s).buf }

func (OrSetSpaceTime) size(s orset.TreeState) int { return 4 + 16*orset.Len(s) }

// put walks the tree in order, writing each pair where Flatten would
// have placed it, then fills in the count the walk produced.
func (OrSetSpaceTime) put(w Writer, s orset.TreeState) Writer {
	at := len(w.buf)
	w.PutLen(0)
	w = putTree(w, s)
	binary.BigEndian.PutUint32(w.buf[at:], uint32((len(w.buf)-at-4)/16))
	return w
}

func putTree(w Writer, n *orset.TreeNode) Writer {
	if n == nil {
		return w
	}
	w = putTree(w, n.Left)
	w.PutInt64(n.Pair.E)
	w.PutTimestamp(n.Pair.T)
	return putTree(w, n.Right)
}

// Decode deserializes the set.
func (OrSetSpaceTime) Decode(b []byte) (orset.TreeState, error) {
	r := NewReader(b)
	ps := decodePairs(r)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return orset.BuildBalanced(orset.SpaceState(ps)), nil
}

// Queue is the codec for the replicated functional queue. The queue is
// serialized oldest-first; decoding rebuilds the two-list representation
// with everything in the front list, an observationally equivalent state.
type Queue struct{}

// Encode serializes the queue.
func (c Queue) Encode(s queue.State) []byte { return c.put(sized(c.size(s)), s).buf }

func (Queue) size(s queue.State) int { return 4 + 16*s.Len() }

// put lays the entries out oldest-first by position, so the newest-first
// back list lands reversed without materializing the queue.
func (Queue) put(w Writer, s queue.State) Writer {
	n := s.Len()
	w.PutLen(n)
	w.Grow(16 * n)
	at := len(w.buf)
	w.buf = w.buf[:at+16*n]
	entries := w.buf[at:]
	s.Each(func(i int, p queue.Pair) {
		binary.BigEndian.PutUint64(entries[16*i:], uint64(p.T))
		binary.BigEndian.PutUint64(entries[16*i+8:], uint64(p.V))
	})
	return w
}

// Decode deserializes the queue.
func (Queue) Decode(b []byte) (queue.State, error) {
	r := NewReader(b)
	n := r.Len(16)
	ps := make([]queue.Pair, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, queue.Pair{T: r.Timestamp(), V: r.Int64()})
	}
	if err := r.Close(); err != nil {
		return queue.State{}, err
	}
	return queue.FromSlice(ps), nil
}

// AlphaMap is the codec for α-map states over any inner state codec —
// one generic codec serves every composition instance (chat, α-map of
// counters, α-map of OR-sets, …).
type AlphaMap[S any] struct {
	// Inner serializes the value states the map binds. It is one of this
	// package's codecs, so the map can size the bound states and write
	// them in place.
	Inner innerCodec[S]
}

// Encode serializes the map as length-prefixed (key, inner payload)
// pairs in binding order.
func (c AlphaMap[S]) Encode(s alphamap.State[S]) []byte { return c.put(sized(c.size(s)), s).buf }

func (c AlphaMap[S]) size(s alphamap.State[S]) int {
	n := 4
	for _, e := range s {
		n += 4 + len(e.K) + 4 + c.Inner.size(e.V)
	}
	return n
}

// put writes each inner payload straight after its length prefix and
// fills the prefix in afterwards, sizing every bound state once.
func (c AlphaMap[S]) put(w Writer, s alphamap.State[S]) Writer {
	w.PutLen(len(s))
	for _, e := range s {
		w.PutString(e.K)
		at := len(w.buf)
		w.PutLen(0)
		w = c.Inner.put(w, e.V)
		binary.BigEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	}
	return w
}

// Decode deserializes the map.
func (c AlphaMap[S]) Decode(b []byte) (alphamap.State[S], error) {
	r := NewReader(b)
	n := r.Len(8)
	s := make(alphamap.State[S], 0, n)
	for i := 0; i < n; i++ {
		k := r.String()
		payload := r.Bytes()
		if r.Err() != nil {
			break
		}
		inner, err := c.Inner.Decode(payload)
		if err != nil {
			return nil, err
		}
		s = append(s, alphamap.Entry[S]{K: k, V: inner})
	}
	return s, r.Close()
}

// Chat is the codec for the IRC-style chat (an α-map of mergeable logs).
type Chat struct{}

// Encode serializes the chat state.
func (Chat) Encode(s chat.State) []byte {
	return AlphaMap[mlog.State]{Inner: MLog{}}.Encode(s)
}

// Decode deserializes the chat state.
func (Chat) Decode(b []byte) (chat.State, error) {
	return AlphaMap[mlog.State]{Inner: MLog{}}.Decode(b)
}
