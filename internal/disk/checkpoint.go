package disk

// Checkpoints: the log's commit-graph sidecar, inlined. A checkpoint
// record carries the complete *index* of the log at its write point —
// every commit (hash, parents, state, generation, timestamp), every pack
// object's metadata plus the (segment, offset) its bytes live at, the
// branch heads with their clock state, the replica-id allocator floor and
// the log's metadata — but none of the state bytes themselves. It is
// always the first record of a fresh segment, so Open can find the newest
// checkpoint by probing segment heads (one record read per segment,
// newest first) instead of scanning history, install the index with lazy
// object loaders pointing back into the older segments, and replay only
// the records that follow. Recovery cost becomes O(live index + suffix),
// flat in history depth — the shape Git gets from commit-graph and
// multi-pack-index files over its packs.
//
// The index sections are stored as fixed-width entry arrays in the
// store's frozen-index layout (store/frozen.go), commit and object
// entries alike ascending by hash. Decoding a checkpoint is then section
// slicing, not entry-by-entry parsing — recovery adopts the CRC-verified
// payload bytes as the store's index (store.FrozenIndex), resolves
// entries by binary search, and decodes nothing until a walk touches it,
// which is what makes open time flat instead of O(index).
//
// Checkpoints are written every CheckpointEvery mutations, after every
// compaction, and on a clean Close (so an orderly restart replays a
// zero-length suffix). A torn or corrupt checkpoint fails its CRC like
// any record; Open then probes the next older segment head and, with no
// valid checkpoint anywhere, falls back to full (parallel) segment
// replay. Nothing but time is lost.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/store"
	"repro/internal/wire"
)

// objLoc is one pack object's index entry: its chain metadata plus where
// in the log its record lives, enough to both write a checkpoint and
// serve a lazy load.
type objLoc struct {
	base   store.Hash
	delta  bool
	size   int
	depth  int
	stored int   // stored-byte length (len of the record's data field)
	seg    int   // segment holding the object record
	off    int64 // offset of the record's frame within the segment
}

// shadowState mirrors the log's durable contents in index form so a
// checkpoint can be serialized at any moment without asking the store.
// A checkpoint-seeded open adopts the checkpoint's sections frozen and
// overlays only what the suffix replay and this session's appends add;
// a full replay or a compaction rebuild carries everything in the
// overlay maps with frozen nil. Every checkpoint written re-freezes it
// into the first shape (checkpointLocked). Branch records are few and
// always live in the map (an overlay entry supersedes a frozen section's
// name).
type shadowState struct {
	frozen   *store.FrozenIndex
	commits  map[store.Hash]store.Commit
	objects  map[store.Hash]objLoc
	branches map[string]store.BranchRecord
	nextID   int
}

func newShadow() shadowState {
	return shadowState{
		commits:  make(map[store.Hash]store.Commit),
		objects:  make(map[store.Hash]objLoc),
		branches: make(map[string]store.BranchRecord),
	}
}

// checkpoint is a decoded checkpoint record. The frozen index aliases
// the record's payload (already CRC-verified by the frame).
type checkpoint struct {
	meta     map[string]string
	nextID   int
	frozen   *store.FrozenIndex
	branches map[string]store.BranchRecord
}

// encodeCheckpoint serializes the shadow state (and log metadata) as one
// checkpoint record payload, kind byte included:
//
//	recCheckpoint
//	[u32 #commits][fixed-width commit entries, hash-ascending]
//	[u32 #objects][fixed-width object entries, hash-ascending]
//	wire-encoded tail: meta, nextID, branches
//
// Both index sections come out hash-ascending — recovery resolves them
// by binary search without decoding. Frozen sections re-emit raw (a
// memcpy per entry); overlay entries encode fresh, sorted and merged
// into the frozen section's hash order, an overlay entry superseding a
// frozen one with the same hash. The payload is one buffer, sized for
// the case where nothing is superseded; each section's count is filled
// in once its merge has run.
func encodeCheckpoint(meta map[string]string, sh *shadowState) []byte {
	fz := sh.frozen
	nfc, nfo := 0, 0
	if fz != nil {
		nfc, nfo = fz.NumCommits(), fz.NumObjects()
	}
	ckeys := sortedHashes(sh.commits)
	keys := sortedHashes(sh.objects)

	var w wire.Writer
	w.PutLen(len(meta))
	for k, v := range meta {
		w.PutString(k)
		w.PutString(v)
	}
	w.PutInt64(int64(sh.nextID))
	w.PutLen(len(sh.branches))
	for name, b := range sh.branches {
		w.PutString(name)
		w.PutHash(b.Head)
		w.PutInt64(int64(b.Replica))
		w.PutInt64(b.Clock)
	}
	tail := w.Bytes()

	payload := make([]byte, 0, 1+4+(nfc+len(ckeys))*store.FrozenCommitBytes+
		4+(nfo+len(keys))*store.FrozenObjectBytes+len(tail))
	payload = append(payload, recCheckpoint)

	at := len(payload)
	payload = append(payload, 0, 0, 0, 0)
	ci := 0
	for _, h := range ckeys {
		for ci < nfc {
			fh := fz.CommitHashAt(ci)
			cmp := bytes.Compare(fh[:], h[:])
			if cmp > 0 {
				break
			}
			if cmp < 0 {
				payload = append(payload, fz.RawCommit(ci)...)
			}
			ci++
		}
		payload = store.AppendFrozenCommit(payload, h, sh.commits[h])
	}
	for ; ci < nfc; ci++ {
		payload = append(payload, fz.RawCommit(ci)...)
	}
	binary.BigEndian.PutUint32(payload[at:], uint32((len(payload)-at-4)/store.FrozenCommitBytes))

	at = len(payload)
	payload = append(payload, 0, 0, 0, 0)
	fi := 0
	for _, h := range keys {
		for fi < nfo {
			fh := fz.ObjectHashAt(fi)
			cmp := bytes.Compare(fh[:], h[:])
			if cmp > 0 {
				break
			}
			if cmp < 0 {
				payload = append(payload, fz.RawObject(fi)...)
			}
			fi++ // equal: the overlay entry supersedes the frozen one
		}
		o := sh.objects[h]
		payload = store.AppendFrozenObject(payload, h, store.FrozenObject{
			Base: o.base, Delta: o.delta, Size: o.size, Depth: o.depth,
			Stored: o.stored, Seg: o.seg, Off: o.off,
		})
	}
	for ; fi < nfo; fi++ {
		payload = append(payload, fz.RawObject(fi)...)
	}
	binary.BigEndian.PutUint32(payload[at:], uint32((len(payload)-at-4)/store.FrozenObjectBytes))

	return append(payload, tail...)
}

// sortedHashes returns m's keys in ascending byte order.
func sortedHashes[V any](m map[store.Hash]V) []store.Hash {
	keys := make([]store.Hash, 0, len(m))
	for h := range m {
		keys = append(keys, h)
	}
	slices.SortFunc(keys, func(a, b store.Hash) int { return bytes.Compare(a[:], b[:]) })
	return keys
}

// decodeCheckpoint parses a checkpoint record body (the payload past the
// kind byte). The index sections are adopted by reference — body must be
// a buffer the caller does not reuse — so decode cost is independent of
// index size; only the small tail (meta, branches) parses entry-wise.
func decodeCheckpoint(body []byte) (*checkpoint, error) {
	section := func(width int) ([]byte, error) {
		if len(body) < 4 {
			return nil, fmt.Errorf("checkpoint truncated before section count")
		}
		n := int64(binary.BigEndian.Uint32(body))
		body = body[4:]
		size := n * int64(width)
		if size > int64(len(body)) {
			return nil, fmt.Errorf("checkpoint section announces %d entries, %d bytes remain", n, len(body))
		}
		sec := body[:size:size]
		body = body[size:]
		return sec, nil
	}
	commits, err := section(store.FrozenCommitBytes)
	if err != nil {
		return nil, err
	}
	objects, err := section(store.FrozenObjectBytes)
	if err != nil {
		return nil, err
	}
	fz, err := store.NewFrozenIndex(commits, objects, nil)
	if err != nil {
		return nil, err
	}
	ck := &checkpoint{frozen: fz}
	r := wire.NewReader(body)
	nm := r.Len(2)
	ck.meta = make(map[string]string, nm)
	for i := 0; i < nm; i++ {
		k := r.String()
		ck.meta[k] = r.String()
	}
	ck.nextID = int(r.Int64())
	nb := r.Len(4 + hashLen + 16)
	ck.branches = make(map[string]store.BranchRecord, nb)
	for i := 0; i < nb; i++ {
		name := r.String()
		var b store.BranchRecord
		b.Head = r.Hash()
		b.Replica = int(r.Int64())
		b.Clock = r.Int64()
		ck.branches[name] = b
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return ck, nil
}

// probeCheckpoint reads the first record of the segment at path and, if
// it is a valid checkpoint, returns it decoded along with the offset just
// past its frame (where suffix replay resumes). The kind byte is peeked
// before the frame is read in full, so probing a segment that does not
// head with a checkpoint costs one small read. Any damage — missing
// header, short read, CRC mismatch, wrong kind, parse failure — reports
// ok=false; the caller probes the next older segment or falls back to
// full replay.
func probeCheckpoint(path string) (ck *checkpoint, end int64, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	var head [len(segMagic) + 9]byte
	if _, err := f.ReadAt(head[:], 0); err != nil || string(head[:len(segMagic)]) != segMagic {
		return nil, 0, false
	}
	if head[len(segMagic)+8] != recCheckpoint {
		return nil, 0, false
	}
	payload, end, err := readFrameAt(f, int64(len(segMagic)))
	if err != nil || len(payload) == 0 || payload[0] != recCheckpoint {
		return nil, 0, false
	}
	ck, err = decodeCheckpoint(payload[1:])
	if err != nil {
		return nil, 0, false
	}
	return ck, end, true
}

// loader returns the frozen-index load hook bound to this log: re-read
// one object record and hand back its verified stored bytes.
func (l *Log) loader() store.FrozenLoader {
	return func(h store.Hash, seg int, off int64) ([]byte, error) {
		return l.readObjectData(seg, off, h)
	}
}

// lazyRecord wraps an index entry as a store.ObjectRecord whose bytes
// load (and CRC-verify) from the log on first use.
func (l *Log) lazyRecord(h store.Hash, loc objLoc) store.ObjectRecord {
	return store.ObjectRecord{
		Base: loc.base, Delta: loc.delta, Size: loc.size, Depth: loc.depth, Stored: loc.stored,
		Load: func() ([]byte, error) { return l.readObjectData(loc.seg, loc.off, h) },
	}
}

// readObjectData re-reads one object record at (seg, off), re-verifies
// its CRC and content, and returns its stored bytes — the lazy-load path
// behind checkpoint-recovered objects. It opens its own descriptor, so
// concurrent loads never contend; the owning store's locking guarantees
// the segment cannot be compacted away mid-read (compaction forces every
// live object resident first, under the store's write lock).
func (l *Log) readObjectData(seg int, off int64, want store.Hash) ([]byte, error) {
	path := filepath.Join(l.dir, segName(seg))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, _, err := readFrameAt(f, off)
	if err != nil {
		return nil, fmt.Errorf("disk: lazy load %v at %s+%d: %w", want, segName(seg), off, err)
	}
	op, err := decodeRecord(payload, off)
	if err != nil || op.kind != recObject || op.hash != want {
		return nil, fmt.Errorf("disk: lazy load %v at %s+%d: record does not match index", want, segName(seg), off)
	}
	return op.object.Data, nil
}

// attachCheckpoint installs a decoded checkpoint as the base of a seek
// recovery: the recovery state is still empty, so the index sections are
// adopted frozen — handed to the store as a FrozenIndex and kept by the
// shadow as the base its overlays merge over — with nothing decoded per
// entry. Branches, metadata and the allocator floor are small and
// install eagerly.
func (l *Log) attachCheckpoint(rec *Recovered, ck *checkpoint) {
	for k, v := range ck.meta {
		rec.Meta[k] = v
	}
	fz := ck.frozen
	fz.Loader = l.loader()
	rec.State.Frozen = fz
	l.shadow.frozen = fz
	for name, b := range ck.branches {
		rec.State.Branches[name] = b
		l.shadow.branches[name] = b
	}
	if ck.nextID > rec.State.NextID {
		rec.State.NextID = ck.nextID
	}
	if ck.nextID > l.shadow.nextID {
		l.shadow.nextID = ck.nextID
	}
}

// mergeCheckpoint replays a checkpoint record encountered mid-scan (full
// replay, or a checkpoint the seek did not consume). Commits and objects
// install only if absent — the earlier records already supplied the
// bytes, and a lazy entry must never shadow resident data. Branches,
// metadata and the allocator floor are the checkpoint's snapshot of
// current truth and replace what replay accumulated before it.
func (l *Log) mergeCheckpoint(rec *Recovered, ck *checkpoint) {
	for k, v := range ck.meta {
		rec.Meta[k] = v
	}
	fz := ck.frozen
	for i, n := 0, fz.NumCommits(); i < n; i++ {
		h, c := fz.CommitAt(i)
		if _, ok := rec.State.Commits[h]; !ok {
			rec.State.Commits[h] = c
			l.shadow.commits[h] = c
		}
	}
	for i, n := 0, fz.NumObjects(); i < n; i++ {
		h, fo := fz.ObjectAt(i)
		if _, ok := rec.State.Objects[h]; !ok {
			loc := objLoc{
				base: fo.Base, delta: fo.Delta, size: fo.Size, depth: fo.Depth,
				stored: fo.Stored, seg: fo.Seg, off: fo.Off,
			}
			rec.State.Objects[h] = l.lazyRecord(h, loc)
			l.shadow.objects[h] = loc
		}
	}
	for name := range rec.State.Branches {
		delete(rec.State.Branches, name)
		delete(l.shadow.branches, name)
	}
	for name, b := range ck.branches {
		rec.State.Branches[name] = b
		l.shadow.branches[name] = b
	}
	if ck.nextID > rec.State.NextID {
		rec.State.NextID = ck.nextID
	}
	if ck.nextID > l.shadow.nextID {
		l.shadow.nextID = ck.nextID
	}
}

// checkpointLocked serializes the shadow state as a checkpoint record at
// the head of a fresh segment (sealing the active one first, unless it
// is still empty). Sealing fsyncs everything the checkpoint references
// before the checkpoint itself is written, so a durable checkpoint can
// never point at lost bytes.
//
// Once written, the checkpoint's index sections become the shadow's
// frozen base and the overlay maps start empty — the shape a
// checkpoint-seeded Open produces. The next checkpoint then sorts only
// what was appended since this one and copies the rest raw, and the
// index stops living in pointer-heavy maps the garbage collector scans.
func (l *Log) checkpointLocked() error {
	record := encodeCheckpoint(l.meta, &l.shadow)
	if err := checkRecordSize(record); err != nil {
		// An index beyond what one frame can describe skips its
		// checkpoint: recovery falls back to segment replay, losing time,
		// not data.
		l.mutsSince = 0
		return nil
	}
	if l.size > int64(len(segMagic)) {
		if err := l.sealLocked(); err != nil {
			return err
		}
		if err := l.startSegment(l.seq + 1); err != nil {
			return err
		}
		if err := syncDir(l.dir); err != nil {
			return err
		}
		l.metrics.rotated()
	}
	n, err := writeFrame(l.w, record)
	if err != nil {
		return err
	}
	l.size += n
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.opts.Fsync == FsyncAlways {
		l.stats.Fsyncs++
		if err := l.timedSync(); err != nil {
			return err
		}
	}
	l.stats.Records++
	l.stats.Checkpoints++
	l.metrics.checkpointed()
	l.mutsSince = 0
	l.sinceCkpt = 0
	// Decoding slices the sections out of the record just written — the
	// frozen index aliases it — and parses only the small tail.
	ck, err := decodeCheckpoint(record[1:])
	if err != nil {
		return fmt.Errorf("disk: re-reading the checkpoint just written: %w", err)
	}
	l.shadow.frozen = ck.frozen
	l.shadow.commits = make(map[store.Hash]store.Commit)
	l.shadow.objects = make(map[store.Hash]objLoc)
	return nil
}

// maybeCheckpointLocked writes a checkpoint when the mutation counter
// crosses the configured interval — self-throttled on deep histories.
// Every checkpoint is a full index snapshot, O(history) bytes, so a
// fixed cadence would cost O(history²/N) disk over the life of a log.
// Requiring the un-checkpointed suffix to also reach a quarter of the
// index makes consecutive checkpoints grow geometrically, bounding all
// checkpoint bytes ever written to a small multiple of the final index
// (the same amortization WAL-checkpointing engines use). Clean closes
// still checkpoint unconditionally (Close), so reopen after a clean
// shutdown replays one record whatever the depth; only recovery from a
// crash pays the bounded suffix.
func (l *Log) maybeCheckpointLocked() error {
	if l.opts.CheckpointEvery <= 0 || l.mutsSince < l.opts.CheckpointEvery {
		return nil
	}
	entries := len(l.shadow.commits) + len(l.shadow.objects)
	if fz := l.shadow.frozen; fz != nil {
		entries += fz.NumCommits() + fz.NumObjects()
	}
	if l.mutsSince < entries/4 {
		return nil
	}
	return l.checkpointLocked()
}
