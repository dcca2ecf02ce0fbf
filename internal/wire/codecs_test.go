package wire_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mlog"
	"repro/internal/orset"
	"repro/internal/wire"
	"repro/peepul"
)

// codecCase is one codec encoding one fixed state.
type codecCase struct {
	name   string
	encode func() []byte
}

// walked is the state a seeded walk of d's operation alphabet reaches
// from the initial state, with d's codec to encode it.
func walked[S, Op, Val any](d peepul.Datatype[S, Op, Val], steps int) codecCase {
	rng := rand.New(rand.NewSource(1))
	s := d.Impl.Init()
	for i := 1; i <= steps; i++ {
		s, _ = d.Impl.Do(d.Ops[rng.Intn(len(d.Ops))], s, peepul.Timestamp(i))
	}
	return codecCase{name: d.Name, encode: func() []byte { return d.Codec.Encode(s) }}
}

// registeredCases holds one walked state per registered datatype; the
// test fails if a registration has no case here.
func registeredCases(t *testing.T) []codecCase {
	const steps = 200
	cases := []codecCase{
		walked(peepul.IncCounter, steps),
		walked(peepul.PNCounter, steps),
		walked(peepul.EWFlag, steps),
		walked(peepul.DWFlag, steps),
		walked(peepul.LWWReg, steps),
		walked(peepul.GSet, steps),
		walked(peepul.GMap, steps),
		walked(peepul.MLog, steps),
		walked(peepul.OrSet, steps),
		walked(peepul.OrSetSpace, steps),
		walked(peepul.OrSetSpaceTime, steps),
		walked(peepul.Queue, steps),
		walked(peepul.AlphaMapCounter, steps),
		walked(peepul.AlphaMapOrSet, steps),
		walked(peepul.Chat, steps),
	}
	have := make(map[string]bool, len(cases))
	for _, c := range cases {
		have[c.name] = true
	}
	for _, name := range peepul.Names() {
		if !have[name] {
			t.Fatalf("registered datatype %q has no codec case", name)
		}
	}
	return cases
}

// benchStates are the two state shapes the write path encodes on every
// commit: an 8 KB OR-set and a ~42 KB mergeable log.
func benchStates() (orset.SpaceState, mlog.State) {
	rng := rand.New(rand.NewSource(7))
	set := make(orset.SpaceState, 512)
	for i := range set {
		set[i] = orset.Pair{E: int64(2 * i), T: peepul.Timestamp(rng.Int63())}
	}
	log := make(mlog.State, 670)
	for i := range log {
		msg := make([]byte, 30+rng.Intn(40))
		for j := range msg {
			msg[j] = byte('a' + rng.Intn(26))
		}
		log[i] = mlog.Entry{T: peepul.Timestamp(len(log) - i), Msg: string(msg)}
	}
	return set, log
}

// goldenSHA256 pins the SHA-256 of every case's encoding. States are
// content-addressed by these bytes, so no change to how a codec writes
// may change them.
var goldenSHA256 = map[string]string{
	"inc-counter":             "c51c355bec1a607e6d53e08090124ea8d3bbe752b5fca386830e124c53b4d90e",
	"pn-counter":              "24251aff5a833181495d8cd3db5a74ecf9a0afd0bfdf6c481709084c630ec589",
	"ew-flag":                 "487cb5c74238c1994490ef7a932d1c090af49dadd3dfc1495a160fb30c7f09e8",
	"dw-flag":                 "87d9b38dcdf92a2dafad59d73127841251d88306a4cff3dddb018b31b24203b6",
	"lww-register":            "e5e926d8c12ce2159c670af80c7285edd4ca4a5dcce34c4c34639626ed05f136",
	"g-set":                   "6ad7f8cef4d093dcc06a9e5fcaab4d13106db9ec5acbf0491f173a509ce2dca8",
	"g-map":                   "7595152d9ea7587de693b34fb4abd7ae36506d53f17c96572e0cb58e06ba9355",
	"mergeable-log":           "c2631cb7d7ea8584a3a4d5aa6c28893868effe854cccf848b013a36c275bb9cf",
	"or-set":                  "ed6ba2ea9321f4802a3300569c857088b2fd60864568e63c28f65c90daf2fa8c",
	"or-set-space":            "1176845dd5602ce60672a4cd847636b3043ee57b5248e9d63524ec737aaf5178",
	"or-set-spacetime":        "1176845dd5602ce60672a4cd847636b3043ee57b5248e9d63524ec737aaf5178",
	"functional-queue":        "2c6b398df714ec6660aeb41aa0ea86e863694be56e92ac41ddb940f7c030588e",
	"alpha-map<pn-counter>":   "e83620f9f0970547a1536c7b97e19e635ec41aab77052e48f20d738dc67b2230",
	"alpha-map<or-set-space>": "2c185131201ea5bf6962cd0f00c8f5da7ec2066179e124e13e53a922ad006410",
	"irc-chat":                "4b2efd82216364d84005d4f42b436909c60a5f13ae2111bba6df187843eea88b",
	"or-set-space/8KB":        "41377ec94550ddb1b33984f496e0e0c469fe1a3a701e01ece23652fc24d4b5ba",
	"mergeable-log/42KB":      "a4982f191997da9a7a86c7deecc51260c69e578d93334723ab218b5412132386",
}

// TestEncodeGolden: every registered codec, and the two write-path
// shapes, encode to exactly the pinned bytes.
func TestEncodeGolden(t *testing.T) {
	set, log := benchStates()
	cases := append(registeredCases(t),
		codecCase{"or-set-space/8KB", func() []byte { return wire.OrSetSpace{}.Encode(set) }},
		codecCase{"mergeable-log/42KB", func() []byte { return wire.MLog{}.Encode(log) }},
	)
	for _, c := range cases {
		sum := sha256.Sum256(c.encode())
		got := hex.EncodeToString(sum[:])
		if want := goldenSHA256[c.name]; got != want {
			t.Errorf("%s: encoding hashes to %s, want %s", c.name, got, want)
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestEncodeAllocs: every registered codec encodes into one buffer —
// one allocation per Encode, α-map states included (their bound states
// are written in place, not encoded separately and copied).
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, c := range registeredCases(t) {
		if allocs := testing.AllocsPerRun(20, func() { c.encode() }); allocs != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", c.name, allocs)
		}
	}
}

// BenchmarkEncode times one commit's encode on the write path's two
// state shapes.
func BenchmarkEncode(b *testing.B) {
	set, log := benchStates()
	for _, c := range []codecCase{
		{fmt.Sprintf("or-set-space-%dKB", len(wire.OrSetSpace{}.Encode(set))>>10), func() []byte { return wire.OrSetSpace{}.Encode(set) }},
		{fmt.Sprintf("mergeable-log-%dKB", len(wire.MLog{}.Encode(log))>>10), func() []byte { return wire.MLog{}.Encode(log) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.encode())))
			for b.Loop() {
				c.encode()
			}
		})
	}
}
