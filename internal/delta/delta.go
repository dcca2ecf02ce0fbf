// Package delta implements the binary delta encoding the store's pack
// layer chains state objects with: a patch is a sequence of copy/insert
// opcodes that rebuilds a target byte string from a base byte string,
// the way Git packfiles delta-chain objects against a nearby version.
// Patches are pure data — Apply validates every offset and length against
// the base and the announced target size, so a corrupted or hostile patch
// yields an error, never an out-of-bounds read or an oversized
// allocation.
//
// The format is deliberately small. A patch opens with two uvarints, the
// base length and the target length (Apply refuses a patch whose base
// length does not match the base it is given), followed by opcodes:
//
//	0x00 <uvarint n> <n bytes>      insert the next n literal bytes
//	0x01 <uvarint off> <uvarint n>  copy n bytes from base offset off
//
// Make is a linear-time encoder built for the edits a state object
// sees between two commits. It trims the common suffix of base and
// target into one trailing copy, then walks the rest of the target
// trying three alignments at each position: the diagonal of the last
// copy, the start-aligned one and the end-aligned one, each extended a
// word at a time. A local insert, delete or rewrite leaves every
// unchanged byte on one of those diagonals, so it costs O(n) word
// compares and no index. Only a literal run that outgrows them (content
// relocated by a merge, say) makes Make index the base in front of the
// suffix in blockSize-aligned windows and look the target up there. It
// always produces a valid patch; when base and target share nothing,
// the patch degenerates to one insert of the whole target (plus the
// header).
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrCorrupt is wrapped by every Apply failure.
var ErrCorrupt = errors.New("delta: corrupt patch")

// MaxTarget bounds the target length a patch may announce — the same
// 64 MiB ceiling the wire layer puts on one full encoded state, so a
// patch can never be used to reassemble (or allocate for) anything a
// full-state transfer could not have shipped. The store falls back to
// snapshots for states beyond it.
const MaxTarget = 64 << 20

// Opcode tags.
const (
	opInsert = 0x00
	opCopy   = 0x01
)

// blockSize is the match granularity of Make: only matches at least
// this long are worth a copy opcode (a copy costs up to
// 1+2·binary.MaxVarintLen64 bytes), and the lazy index hashes base
// windows of this size.
const blockSize = 16

// maxChainProbe bounds how many same-hash base offsets Make considers per
// target window, so adversarially repetitive inputs stay O(n).
const maxChainProbe = 8

// indexAfter is the literal run length at which Make stops trusting the
// diagonals and indexes the base. One local edit inserts at most a few
// dozen fresh bytes; a longer run is likelier to hold relocated content.
const indexAfter = 8 * blockSize

// stageSize is the stack buffer Make builds a patch in, so the returned
// exact-size copy is the only heap allocation for a typical patch.
const stageSize = 512

// Make encodes target as a patch against base. The result is always a
// valid input for Apply(base, ·); it is never larger than
// len(target)+2·binary.MaxVarintLen64+header bytes beyond the target
// itself, so callers comparing against storing target verbatim can simply
// compare lengths. Its capacity is its length: the pack layer keeps
// patches, so a spare tail would be pinned memory.
func Make(base, target []byte) []byte {
	var stage [stageSize]byte
	patch := binary.AppendUvarint(stage[:0], uint64(len(base)))
	patch = binary.AppendUvarint(patch, uint64(len(target)))

	// The common suffix is one trailing copy. It is maximal, so the
	// bytes in front of it differ and no earlier copy runs into it.
	suf := commonSuffix(base, target)
	if suf < blockSize {
		suf = 0
	}
	tEnd, bEnd := len(target)-suf, len(base)-suf

	// lit starts the pending literal run; diag is the last copy's base
	// offset minus its target offset.
	lit, diag := 0, 0
	var index map[uint64][]int
	for i := 0; i+blockSize <= tEnd; {
		var start, off, n int
		for _, d := range [...]int{diag, 0, len(base) - len(target)} {
			if start, off, n = extend(base, target[:tEnd], i, i+d, lit); n >= blockSize {
				break
			}
		}
		if n < blockSize && index == nil && i-lit >= indexAfter {
			index = make(map[uint64][]int, bEnd/blockSize)
			for o := 0; o+blockSize <= bEnd; o += blockSize {
				h := blockHash(base[o:])
				if len(index[h]) < maxChainProbe {
					index[h] = append(index[h], o)
				}
			}
			i = lit // rescan the run against the index
			continue
		}
		if n < blockSize && index != nil {
			for _, cand := range index[blockHash(target[i:])] {
				if s, o, l := extend(base, target[:tEnd], i, cand, lit); l > n {
					start, off, n = s, o, l
				}
			}
		}
		if n < blockSize {
			i++
			continue
		}
		patch = appendCopy(appendInsert(patch, target[lit:start]), off, n)
		i, lit, diag = start+n, start+n, off-start
	}
	patch = appendCopy(appendInsert(patch, target[lit:tEnd]), bEnd, suf)
	return append(make([]byte, 0, len(patch)), patch...)
}

// extend measures the match of target[i:] against base[off:], grown
// backward no further than target offset lo. It returns the match's
// target start, base start and length; an off outside base matches
// nothing.
func extend(base, target []byte, i, off, lo int) (start, boff, n int) {
	if off < 0 || off >= len(base) {
		return 0, 0, 0
	}
	start, boff = i, off
	for start > lo && boff > 0 && target[start-1] == base[boff-1] {
		start--
		boff--
	}
	return start, boff, i - start + commonPrefix(target[i:], base[off:])
}

// commonPrefix returns the length of the common prefix of a and b,
// comparing eight bytes at a time.
func commonPrefix(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns the length of the common suffix of a and b,
// comparing eight bytes at a time.
func commonSuffix(a, b []byte) int {
	i, j := len(a), len(b)
	for i >= 8 && j >= 8 {
		if x := binary.LittleEndian.Uint64(a[i-8:i]) ^ binary.LittleEndian.Uint64(b[j-8:j]); x != 0 {
			return len(a) - i + bits.LeadingZeros64(x)/8
		}
		i, j = i-8, j-8
	}
	for i > 0 && j > 0 && a[i-1] == b[j-1] {
		i, j = i-1, j-1
	}
	return len(a) - i
}

// Identity returns the patch that rebuilds an n-byte base unchanged —
// one copy of the whole base. Stores ship it for commits that pin
// exactly their parent's state (deduplicated no-op operations), where
// the base's length is known without materializing the bytes.
func Identity(n int) []byte {
	patch := make([]byte, 0, 2*binary.MaxVarintLen64+4)
	patch = binary.AppendUvarint(patch, uint64(n))
	patch = binary.AppendUvarint(patch, uint64(n))
	return appendCopy(patch, 0, n)
}

// appendCopy emits one copy opcode (nothing for an empty copy).
func appendCopy(patch []byte, off, n int) []byte {
	if n == 0 {
		return patch
	}
	patch = append(patch, opCopy)
	patch = binary.AppendUvarint(patch, uint64(off))
	return binary.AppendUvarint(patch, uint64(n))
}

// appendInsert emits one insert opcode for lit (nothing for empty lit).
func appendInsert(patch, lit []byte) []byte {
	if len(lit) == 0 {
		return patch
	}
	patch = append(patch, opInsert)
	patch = binary.AppendUvarint(patch, uint64(len(lit)))
	return append(patch, lit...)
}

// blockHash is an FNV-1a over the blockSize bytes at the front of b —
// cheap, and collisions only cost a failed comparison.
func blockHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b[:blockSize] {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// Apply rebuilds the target from base and patch. Every opcode is
// validated *before* it produces output: copies must lie inside base,
// no opcode may push the output past the announced target length, the
// announced length is capped at MaxTarget, and the announced base
// length must match len(base) — so a hostile patch can neither read out
// of bounds nor drive allocation beyond MaxTarget, however many
// whole-base copy opcodes it stacks. The returned slice is freshly
// allocated.
func Apply(base, patch []byte) ([]byte, error) {
	baseLen, n := binary.Uvarint(patch)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad base length", ErrCorrupt)
	}
	patch = patch[n:]
	if baseLen != uint64(len(base)) {
		return nil, fmt.Errorf("%w: patch is against a %d-byte base, have %d bytes", ErrCorrupt, baseLen, len(base))
	}
	targetLen, n := binary.Uvarint(patch)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad target length", ErrCorrupt)
	}
	if targetLen > MaxTarget {
		return nil, fmt.Errorf("%w: announced target of %d bytes exceeds the %d limit", ErrCorrupt, targetLen, MaxTarget)
	}
	patch = patch[n:]
	// Every opcode below is checked against the remaining room before
	// appending, so out never grows past targetLen; still cap the
	// prealloc at what the patch could plausibly produce, so a forged
	// length paired with a tiny patch does not get a large buffer for
	// free.
	prealloc := targetLen
	if lim := uint64(len(base)+len(patch)) * 8; prealloc > lim {
		prealloc = lim
	}
	out := make([]byte, 0, prealloc)
	for len(patch) > 0 {
		op := patch[0]
		patch = patch[1:]
		room := targetLen - uint64(len(out))
		switch op {
		case opInsert:
			l, n := binary.Uvarint(patch)
			if n <= 0 || l > uint64(len(patch)-n) {
				return nil, fmt.Errorf("%w: truncated insert", ErrCorrupt)
			}
			if l > room {
				return nil, fmt.Errorf("%w: output exceeds announced %d bytes", ErrCorrupt, targetLen)
			}
			patch = patch[n:]
			out = append(out, patch[:l]...)
			patch = patch[l:]
		case opCopy:
			off, n := binary.Uvarint(patch)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad copy offset", ErrCorrupt)
			}
			patch = patch[n:]
			l, n := binary.Uvarint(patch)
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad copy length", ErrCorrupt)
			}
			patch = patch[n:]
			if off > uint64(len(base)) || l > uint64(len(base))-off {
				return nil, fmt.Errorf("%w: copy [%d,%d) outside %d-byte base", ErrCorrupt, off, off+l, len(base))
			}
			if l > room {
				return nil, fmt.Errorf("%w: output exceeds announced %d bytes", ErrCorrupt, targetLen)
			}
			out = append(out, base[off:off+l]...)
		default:
			return nil, fmt.Errorf("%w: unknown opcode %#x", ErrCorrupt, op)
		}
	}
	if uint64(len(out)) != targetLen {
		return nil, fmt.Errorf("%w: output is %d bytes, %d announced", ErrCorrupt, len(out), targetLen)
	}
	return out, nil
}
