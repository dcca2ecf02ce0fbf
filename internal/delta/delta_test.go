package delta_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/delta"
)

func roundTrip(t *testing.T, base, target []byte) []byte {
	t.Helper()
	patch := delta.Make(base, target)
	got, err := delta.Apply(base, patch)
	if err != nil {
		t.Fatalf("Apply(Make): %v (base %d bytes, target %d bytes)", err, len(base), len(target))
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(target))
	}
	return patch
}

func TestRoundTripEdgeCases(t *testing.T) {
	cases := []struct{ name, base, target string }{
		{"both-empty", "", ""},
		{"empty-base", "", "hello world, this is a fresh target"},
		{"empty-target", "some base content that vanishes", ""},
		{"identical", "the exact same sixteen-plus bytes", "the exact same sixteen-plus bytes"},
		{"append", "a shared prefix of decent length", "a shared prefix of decent length plus a tail"},
		{"prepend", "a shared suffix of decent length", "fresh head then a shared suffix of decent length"},
		{"middle-edit", "left side 0123456789abcdef right side", "left side FEDCBA9876543210 right side"},
		{"short", "ab", "abc"},
		{"disjoint", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			roundTrip(t, []byte(c.base), []byte(c.target))
		})
	}
}

func TestPatchCompressesSmallEdits(t *testing.T) {
	// A small edit on a large base must yield a patch much smaller than
	// the target — the whole point of chaining states as deltas.
	base := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
	target := append(append([]byte{}, base...), []byte("one appended operation")...)
	patch := roundTrip(t, base, target)
	if len(patch) > len(target)/16 {
		t.Fatalf("patch is %d bytes for a %d-byte target with a tiny edit", len(patch), len(target))
	}
}

func TestIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096} {
		base := bytes.Repeat([]byte{0xab}, n)
		got, err := delta.Apply(base, delta.Identity(n))
		if err != nil {
			t.Fatalf("Identity(%d): %v", n, err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("Identity(%d) does not rebuild the base", n)
		}
	}
	if _, err := delta.Apply([]byte("abc"), delta.Identity(4)); err == nil {
		t.Fatal("identity patch for the wrong length must fail")
	}
}

func TestApplyRejectsWrongBase(t *testing.T) {
	base := []byte("the original base, sixteen plus")
	patch := delta.Make(base, []byte("the original base, sixteen plus and more"))
	if _, err := delta.Apply([]byte("a different base"), patch); err == nil {
		t.Fatal("Apply accepted a patch made against another base")
	}
}

func TestApplyRejectsCorruptPatches(t *testing.T) {
	base := bytes.Repeat([]byte("abcdefgh"), 16)
	target := append(bytes.Repeat([]byte("abcdefgh"), 16), []byte("tail")...)
	patch := delta.Make(base, target)
	for i := range patch {
		for _, flip := range []byte{0xff, 0x80, 0x01} {
			mut := append([]byte(nil), patch...)
			mut[i] ^= flip
			if bytes.Equal(mut, patch) {
				continue
			}
			out, err := delta.Apply(base, mut)
			// A flipped byte may still decode (e.g. inside insert
			// literals) — then the output must simply differ; it must
			// never panic or read out of bounds.
			if err == nil && len(out) != len(target) {
				t.Fatalf("corrupt patch (byte %d ^ %#x) produced %d bytes without error, want %d",
					i, flip, len(out), len(target))
			}
		}
	}
	// Truncations must all fail or produce a short, caught output.
	for i := 0; i < len(patch); i++ {
		if _, err := delta.Apply(base, patch[:i]); err == nil {
			t.Fatalf("truncated patch (%d of %d bytes) applied cleanly", i, len(patch))
		}
	}
}

// TestApplyBoundsHostileAmplification: a tiny patch stacking whole-base
// copy opcodes under a huge announced target length must be rejected at
// the first opcode that would push output past the announced length (and
// a length beyond MaxTarget must be rejected outright) — Apply's
// allocation is bounded by min(MaxTarget, announced), never by
// opcode-count × base-size.
func TestApplyBoundsHostileAmplification(t *testing.T) {
	base := bytes.Repeat([]byte{0x5a}, 1<<20) // 1 MiB base
	hostile := func(targetLen uint64, copies int) []byte {
		p := binary.AppendUvarint(nil, uint64(len(base)))
		p = binary.AppendUvarint(p, targetLen)
		for i := 0; i < copies; i++ {
			p = append(p, 0x01) // opCopy
			p = binary.AppendUvarint(p, 0)
			p = binary.AppendUvarint(p, uint64(len(base)))
		}
		return p
	}
	// Announced length beyond MaxTarget: rejected before any output.
	if _, err := delta.Apply(base, hostile(1<<40, 2000)); err == nil {
		t.Fatal("patch announcing 1 TiB must be rejected")
	}
	// Announced length inside MaxTarget but amplified past it by copies:
	// the opcode crossing the announced length fails the apply.
	if _, err := delta.Apply(base, hostile(delta.MaxTarget, 2000)); err == nil {
		t.Fatal("copy amplification past the announced length must be rejected")
	}
}

// TestRandomizedRoundTrip is the property test: targets derived from a
// random base by random splices must always round-trip, whatever the
// mutation pattern.
func TestRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		base := make([]byte, rng.Intn(4096))
		// Low-entropy alphabet: repeated windows stress the match index.
		for i := range base {
			base[i] = byte('a' + rng.Intn(4))
		}
		target := append([]byte(nil), base...)
		for edits := rng.Intn(8); edits > 0; edits-- {
			if len(target) == 0 {
				target = append(target, 'x')
				continue
			}
			at := rng.Intn(len(target))
			switch rng.Intn(3) {
			case 0: // delete a run
				end := at + rng.Intn(64)
				if end > len(target) {
					end = len(target)
				}
				target = append(target[:at], target[end:]...)
			case 1: // insert a run
				ins := make([]byte, rng.Intn(64))
				for i := range ins {
					ins[i] = byte(rng.Intn(256))
				}
				target = append(target[:at], append(ins, target[at:]...)...)
			case 2: // overwrite a byte
				target[at] ^= byte(1 + rng.Intn(255))
			}
		}
		roundTrip(t, base, target)
	}
}

// orsetShape encodes pairs the way the OR-set codecs do: a big-endian
// u32 count, then one 16-byte (element, timestamp) pair per entry.
func orsetShape(pairs [][2]uint64) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(pairs)))
	for _, p := range pairs {
		b = binary.BigEndian.AppendUint64(b, p[0])
		b = binary.BigEndian.AppendUint64(b, p[1])
	}
	return b
}

// orsetPairs returns n pairs sorted by element, with random timestamps.
func orsetPairs(rng *rand.Rand, n int) [][2]uint64 {
	pairs := make([][2]uint64, n)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(3*i + 1), rng.Uint64()}
	}
	return pairs
}

// mlogShape encodes messages the way the mergeable-log codec does: a
// big-endian u32 count, then newest-first (timestamp, length, message)
// entries.
func mlogShape(msgs [][]byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(msgs)))
	for i, m := range msgs {
		b = binary.BigEndian.AppendUint64(b, uint64(1000+len(msgs)-i))
		b = binary.BigEndian.AppendUint32(b, uint32(len(m)))
		b = append(b, m...)
	}
	return b
}

// mlogMessages returns n messages of 28 to 76 random letters, so an
// encoded entry is 40 to 88 bytes.
func mlogMessages(rng *rand.Rand, n int) [][]byte {
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, 28+rng.Intn(49))
		for j := range msgs[i] {
			msgs[i][j] = byte('a' + rng.Intn(26))
		}
	}
	return msgs
}

// edit is one commit-to-commit change of a state encoding; changed
// counts the bytes the edit itself writes.
type edit struct {
	name         string
	base, target []byte
	changed      int
}

// structuredEdits are the edits the store's state objects see: an
// OR-set insert, delete and timestamp rewrite on an encoding of the
// given number of pairs, and a mergeable-log prepend on one of the given
// number of entries. changed is the pair or entry plus the count.
func structuredEdits(rng *rand.Rand, pairs, entries int) []edit {
	set := orsetPairs(rng, pairs)
	mid := len(set) / 2
	inserted := append(append(append([][2]uint64{}, set[:mid]...), [2]uint64{uint64(3*mid - 1), rng.Uint64()}), set[mid:]...)
	deleted := append(append([][2]uint64{}, set[:mid]...), set[mid+1:]...)
	rewritten := append([][2]uint64{}, set...)
	rewritten[mid][1] = rng.Uint64()
	log := mlogMessages(rng, entries+1)
	return []edit{
		{"orset-insert", orsetShape(set), orsetShape(inserted), 16 + 4},
		{"orset-delete", orsetShape(set), orsetShape(deleted), 4},
		{"orset-rewrite", orsetShape(set), orsetShape(rewritten), 8},
		{"mlog-prepend", mlogShape(log[1:]), mlogShape(log), 12 + len(log[0]) + 4},
	}
}

// TestStructuredEdits: a local edit costs a patch of about its own size
// and one allocation — the returned patch — however large the state.
func TestStructuredEdits(t *testing.T) {
	for _, c := range structuredEdits(rand.New(rand.NewSource(3)), 512, 200) {
		t.Run(c.name, func(t *testing.T) {
			patch := roundTrip(t, c.base, c.target)
			if len(patch) > c.changed+24 {
				t.Fatalf("patch is %d bytes for a %d-byte edit of a %d-byte state", len(patch), c.changed, len(c.target))
			}
			if cap(patch) != len(patch) {
				t.Fatalf("patch has capacity %d for %d bytes", cap(patch), len(patch))
			}
			if allocs := testing.AllocsPerRun(20, func() { delta.Make(c.base, c.target) }); allocs != 1 {
				t.Fatalf("Make allocates %v times per call, want 1", allocs)
			}
		})
	}
}

// TestRotationUsesIndex: content relocated off every diagonal (a
// rotation) must still be found — by the lazy block index.
func TestRotationUsesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := make([]byte, 8192)
	rng.Read(base)
	for _, k := range []int{1, 100, 4096, 8000} {
		target := append(append([]byte{}, base[k:]...), base[:k]...)
		if patch := roundTrip(t, base, target); len(patch) > 64 {
			t.Fatalf("rotation by %d: patch is %d bytes, want two copies", k, len(patch))
		}
	}
}

// FuzzApply: arbitrary patches against arbitrary bases must error or
// produce output — never panic, never over-allocate via forged lengths.
func FuzzApply(f *testing.F) {
	base := []byte("seed base content, sixteen plus bytes")
	f.Add(base, delta.Make(base, []byte("seed base content, sixteen plus bytes edited")))
	f.Add([]byte(""), []byte{0, 0})
	f.Add(base, []byte{37, 1, 1, 0, 5})
	f.Fuzz(func(t *testing.T, base, patch []byte) {
		out, err := delta.Apply(base, patch)
		if err != nil {
			return
		}
		// A successful apply must be deterministic.
		again, err := delta.Apply(base, patch)
		if err != nil || !bytes.Equal(out, again) {
			t.Fatal("Apply is not deterministic")
		}
	})
}

// FuzzRoundTrip: Make/Apply agree for arbitrary byte pairs.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("some base"), []byte("some target"))
	f.Add([]byte(""), []byte(""))
	rng := rand.New(rand.NewSource(9))
	for _, c := range structuredEdits(rng, 24, 6) {
		f.Add(c.base, c.target)
	}
	rot := orsetShape(orsetPairs(rng, 24))
	f.Add(rot, append(append([]byte{}, rot[200:]...), rot[:200]...))
	f.Fuzz(func(t *testing.T, base, target []byte) {
		patch := delta.Make(base, target)
		got, err := delta.Apply(base, patch)
		if err != nil {
			t.Fatalf("Apply(Make): %v", err)
		}
		if !bytes.Equal(got, target) {
			t.Fatal("round trip mismatch")
		}
	})
}

// BenchmarkMake times one commit's patch on the two state shapes the
// write path chains: an 8 KB OR-set insert and a ~43 KB mergeable-log
// prepend.
func BenchmarkMake(b *testing.B) {
	edits := structuredEdits(rand.New(rand.NewSource(11)), 512, 670)
	for _, c := range []edit{edits[0], edits[3]} {
		b.Run(fmt.Sprintf("%s-%dKB", c.name, len(c.target)>>10), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.target)))
			for b.Loop() {
				delta.Make(c.base, c.target)
			}
		})
	}
}
