package main

// cart: a shopping cart on one durable node with the default fsync
// policy (flush to the OS per operation). Two closed-loop clients share
// one OR-set; 80% of their calls are Do add/remove and 20% are State plus
// a membership lookup. Client c only writes elements with e%2 == c, so
// each client's model of its own elements is exact and every read can be
// checked.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/orset"
	"repro/internal/store"
	"repro/peepul"
)

type cartSize struct {
	preload  int // ops committed before the measured phase
	elements int // element range [0, elements)
	setups   int // set-ups timed for setup_s; the last one is measured
	reopens  int // close → reopen cycles timed for reopen_ms
}

var (
	cartFull = cartSize{preload: 20000, elements: 1000, setups: 3, reopens: 5}
	cartToy  = cartSize{preload: 300, elements: 40, setups: 2, reopens: 2}
)

const (
	cartNode        = "cart"
	cartObject      = "cart"
	cartClients     = 2
	cartWrites      = 0.8
	cartSampleEvery = 8
	cartSampleSlot  = 10 * time.Millisecond
	// cartReplicaBase is the replica-id block of node id 1, which the
	// traced half passes to the store as the replica layer would.
	cartReplicaBase = 64
)

type cartHandle = peepul.Handle[orset.SpaceState, orset.Op, orset.Val]

// openCart opens (or reopens) the cart node over dir.
func openCart(dir string) (*peepul.Node, *cartHandle, error) {
	node, err := peepul.NewNode(cartNode, 1, peepul.WithStorage(dir))
	if err != nil {
		return nil, nil, err
	}
	h, err := peepul.Open(node, peepul.OrSetSpace, cartObject)
	if err != nil {
		node.Close()
		return nil, nil, err
	}
	return node, h, nil
}

// cartSetup builds a fresh cart in dir, preloads it and reads its state
// once. It returns the membership model.
func cartSetup(dir string, seed int64, sz cartSize) (*peepul.Node, *cartHandle, []bool, error) {
	node, h, err := openCart(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	model := make([]bool, sz.elements)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sz.preload; i++ {
		e := rng.Int63n(int64(sz.elements))
		op := orset.Op{Kind: orset.Remove, E: e}
		if rng.Intn(2) == 0 {
			op.Kind = orset.Add
		}
		if _, err := h.Do(op); err != nil {
			node.Close()
			return nil, nil, nil, err
		}
		model[e] = op.Kind == orset.Add
	}
	if _, err := h.State(); err != nil {
		node.Close()
		return nil, nil, nil, err
	}
	return node, h, model, nil
}

func member(s orset.SpaceState, e int64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].E >= e })
	return i < len(s) && s[i].E == e
}

// cartClient is one closed-loop client's tally.
type cartClient struct {
	writes, reads samples
	errs, bad     int64
}

// cartPhase runs the two clients for d through do and state, updating
// model, and returns their tallies.
func cartPhase(d time.Duration, seed int64, elements int, model []bool,
	do func(orset.Op) error, state func() (orset.SpaceState, error)) []cartClient {
	clients := make([]cartClient, cartClients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &clients[c]
			rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
			for time.Now().Before(deadline) {
				e := int64(2*rng.Intn(elements/2) + c)
				if rng.Float64() < cartWrites {
					op := orset.Op{Kind: orset.Remove, E: e}
					if rng.Intn(2) == 0 {
						op.Kind = orset.Add
					}
					start := time.Now()
					err := do(op)
					cl.writes.add(start)
					if err != nil {
						cl.errs++
						continue
					}
					model[e] = op.Kind == orset.Add
					continue
				}
				start := time.Now()
				s, err := state()
				found := err == nil && member(s, e)
				cl.reads.add(start)
				switch {
				case err != nil:
					cl.errs++
				case found != model[e]:
					cl.bad++
				}
			}
		}(c)
	}
	wg.Wait()
	return clients
}

// cartTally folds the client tallies into res and returns the write
// and read samples.
func cartTally(res *result, clients []cartClient, name string) (w, r samples) {
	var errs, bad int64
	for _, c := range clients {
		w = append(w, c.writes...)
		r = append(r, c.reads...)
		errs += c.errs
		bad += c.bad
	}
	res.ops(int64(len(w)+len(r)), errs)
	res.verify(name+": every read agrees with the client's model", bad, "%d reads disagreed", bad)
	return w, r
}

// checkModel counts elements whose membership in s differs from model.
func checkModel(s orset.SpaceState, model []bool) int64 {
	var bad int64
	for e, in := range model {
		if member(s, int64(e)) != in {
			bad++
		}
	}
	return bad
}

func runCart(cfg config, res *result) error {
	sz := cartFull
	if cfg.toy {
		sz = cartToy
	}
	var (
		node  *peepul.Node
		h     *cartHandle
		model []bool
		times []time.Duration
	)
	for i := 0; i < sz.setups; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("cart-%d", i))
		start := time.Now()
		n, hh, m, err := cartSetup(dir, cfg.seed, sz)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start))
		if node != nil {
			node.Close()
			if err := os.RemoveAll(filepath.Join(cfg.dir, fmt.Sprintf("cart-%d", i-1))); err != nil {
				return err
			}
		}
		node, h, model = n, hh, m
	}
	res.set("setup_s", median(times).Seconds(), "s")
	dir := filepath.Join(cfg.dir, fmt.Sprintf("cart-%d", sz.setups-1))
	defer func() { node.Close() }()

	res.set("heap_mb", heapMB(), "MB")

	// The measured phase, through the public API.
	before, _ := h.StorageStats()
	start := time.Now()
	clients := cartPhase(cfg.measured(), cfg.seed, sz.elements, model, func(op orset.Op) error {
		_, err := h.Do(op)
		return err
	}, h.State)
	w, r := cartTally(res, clients, "cart")
	after, _ := h.StorageStats()
	setLatency(res, "write_us", w)
	setLatency(res, "read_us", r)
	res.set("ops_per_s", rate(start, time.Now(), w, r), "ops/s")
	res.set("disk_bytes_per_op", ratio(float64(after.Bytes-before.Bytes), float64(len(w))), "B")
	untracedP50 := w.steady(0.5)

	acked, err := h.State()
	if err != nil {
		return err
	}
	acked = slices.Clone(acked)
	bad := checkModel(acked, model)
	res.verify("cart: acknowledged state matches the model", bad, "%d elements differ", bad)
	if err := node.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}

	reopens, err := cartReopen(res, "cart", dir, acked, sz.reopens)
	if err != nil {
		return err
	}
	res.set("reopen_ms", ms(median(reopens)), "ms")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return cartTraced(cfg, res, sz, untracedP50)
}

// cartReopen times n cycles of NewNode + Open → first State → Close on
// dir, checking each state against acked.
func cartReopen(res *result, label, dir string, acked orset.SpaceState, n int) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		node, h, err := openCart(dir)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		s, err := h.State()
		times = append(times, time.Since(start))
		res.ops(1, 0)
		name := label + ": reopened state equals the acknowledged state"
		switch {
		case err != nil:
			res.verify(name, 1, "reopen %d: %v", i, err)
		case !slices.Equal(s, acked):
			res.verify(name, 1, "reopen %d: %d pairs, want %d", i, len(s), len(acked))
		default:
			res.verify(name, 0, "")
		}
		if err := node.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}
	return times, nil
}

// cartTraced is the traced half of a cart run. peepul hides the disk
// persister, so it builds the object the way the replica layer does —
// disk.Open, then store.OpenRecovered with the log as persister — with
// every seam wrapped, and drives store.Apply/Head with the same clients.
// It starts from a fresh set-up identical to the untraced half's.
func cartTraced(cfg config, res *result, sz cartSize, untracedP50 time.Duration) error {
	dir := filepath.Join(cfg.dir, "cart-traced")
	node, _, model, err := cartSetup(dir, cfg.seed, sz)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	if err := node.Close(); err != nil {
		return err
	}
	tr := newTracer()
	objDir := filepath.Join(dir, "obj-"+cartObject)
	t0 := time.Now()
	log, rec, err := disk.Open(objDir)
	if err != nil {
		return fmt.Errorf("traced open: %w", err)
	}
	defer log.Close()
	res.set("disk.open_ns", float64(time.Since(t0).Nanoseconds()), "ns")
	res.set("disk.recovered_records", float64(rec.Records), "count")
	if dt, _ := log.Meta("datatype"); dt != peepul.OrSetSpace.Name {
		return fmt.Errorf("traced open: log holds datatype %q", dt)
	}
	t0 = time.Now()
	st, err := store.OpenRecovered[orset.SpaceState, orset.Op, orset.Val](
		timedImpl[orset.SpaceState, orset.Op, orset.Val]{inner: orset.OrSetSpace{}, tr: tr, node: cartNode, doSpan: "orset.do", mergeSpan: "orset.merge"},
		&timedCodec[orset.SpaceState]{inner: peepul.OrSetSpace.Codec, tr: tr, node: cartNode},
		cartNode, cartReplicaBase, &rec.State, store.WithPersister(timedPersister{inner: log, tr: tr, node: cartNode}))
	if err != nil {
		return fmt.Errorf("traced open: %w", err)
	}
	res.set("store.open_ns", float64(time.Since(t0).Nanoseconds()), "ns")

	before := log.Stats()
	w0 := tr.now()
	// Calls are traced in one time slot out of cartSampleEvery: a span
	// costs microseconds, which on every call would double the latency it
	// explains. Both clients share the slots, so outside them no seam
	// pays more than an atomic load.
	sampled := func(name string, f func() error) error {
		if time.Since(tr.epoch)/cartSampleSlot%cartSampleEvery != 0 {
			return f()
		}
		id := tr.root(name, cartNode)
		err := f()
		tr.end(id)
		return err
	}
	clients := cartPhase(cfg.measured(), cfg.seed, sz.elements, model, func(op orset.Op) error {
		return sampled("store.apply", func() error {
			_, err := st.Apply(cartNode, op)
			return err
		})
	}, func() (s orset.SpaceState, err error) {
		err = sampled("store.head", func() error {
			s, err = st.Head(cartNode)
			return err
		})
		return s, err
	})
	win := window{w0, tr.now()}
	w, _ := cartTally(res, clients, "cart traced")
	after := log.Stats()
	writes := float64(len(w))

	a := tr.aggregate(win)
	res.set("orset.do_ns", meanSelf(a, "orset.do"), "ns")
	res.set("wire.encode_ns", meanSelf(a, "wire.encode"), "ns")
	res.set("wire.encode_bytes", meanVal(a, "wire.encode"), "B")
	res.set("wire.decode_ns", meanSelf(a, "wire.decode"), "ns")
	res.set("store.apply_self_ns", meanSelf(a, "store.apply"), "ns")
	if h := a["store.head"]; h != nil {
		res.set("store.head_ns_p99", float64(quantile(h.durs, tail)), "ns")
	}
	res.set("disk.append_ns", meanSelf(a, "disk.append"), "ns")
	res.set("disk.flush_ns", meanSelf(a, "disk.flush"), "ns")
	res.set("disk.fsyncs_per_write", ratio(float64(after.Fsyncs-before.Fsyncs), writes), "count")
	res.set("disk.records_per_write", ratio(float64(after.Records-before.Records), writes), "count")
	res.set("disk.bytes_per_write", ratio(float64(after.Bytes-before.Bytes), writes), "B")
	setPack(res, st.PackStats())
	setDelta(res, tr)
	res.set("trace.overhead_pct", 100*(float64(w.steady(0.5))-float64(untracedP50))/float64(untracedP50), "%")

	acked, err := st.Head(cartNode)
	if err != nil {
		return err
	}
	acked = slices.Clone(acked)
	bad := checkModel(acked, model)
	res.verify("cart traced: acknowledged state matches the model", bad, "%d elements differ", bad)
	if err := st.FlushStorage(); err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	if _, err := cartReopen(res, "cart traced", dir, acked, 1); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(cfg.out, "spans-cart.tsv")); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

func setPack(res *result, ps store.PackStats) {
	res.set("store.delta_share", ratio(float64(ps.Deltas), float64(ps.Objects)), "ratio")
	res.set("store.packed_ratio", ratio(float64(ps.PackedBytes), float64(ps.FullBytes)), "ratio")
}

func setDelta(res *result, tr *tracer) {
	makeNs, patch := tr.deltaSample()
	res.set("delta.make_ns", makeNs, "ns")
	res.set("delta.patch_bytes", patch, "B")
}
