package replica

import (
	"net"
	"testing"
	"time"

	"repro/internal/mesh"
)

// TestDerivedBounds pins what the sync idle bound T derives: a 6·T
// session deadline and a quarantine schedule from 2·T doubling to 30·T,
// beside the constant three-violation threshold and 64-session inbound
// cap.
func TestDerivedBounds(t *testing.T) {
	for _, tc := range []struct {
		opts                            []NodeOption
		idle, session, quarMin, quarMax time.Duration
	}{
		{nil, 30 * time.Second, 3 * time.Minute, time.Minute, 15 * time.Minute},
		{[]NodeOption{WithSyncTimeout(300 * time.Millisecond)},
			300 * time.Millisecond, 1800 * time.Millisecond, 600 * time.Millisecond, 9 * time.Second},
	} {
		n := &Node{}
		for _, o := range tc.opts {
			o(&n.cfg)
		}
		a, b := net.Pipe()
		before := time.Now()
		c := n.newConn(a, nil)
		after := time.Now()
		a.Close()
		b.Close()
		if c.idle != tc.idle {
			t.Errorf("idle bound %v, want %v", c.idle, tc.idle)
		}
		if c.sessionEnd.Before(before.Add(tc.session)) || c.sessionEnd.After(after.Add(tc.session)) {
			t.Errorf("idle %v: session deadline %v after open, want %v",
				tc.idle, c.sessionEnd.Sub(before), tc.session)
		}
		mc := n.cfg.meshConfig()
		if mc.QuarantineMin != tc.quarMin || mc.QuarantineMax != tc.quarMax {
			t.Errorf("idle %v: quarantine %v..%v, want %v..%v",
				tc.idle, mc.QuarantineMin, mc.QuarantineMax, tc.quarMin, tc.quarMax)
		}
	}
	if mesh.QuarantineAfter != 3 || maxInbound != 64 {
		t.Errorf("quarantine after %d violations, inbound cap %d; want 3 and 64",
			mesh.QuarantineAfter, maxInbound)
	}
}
