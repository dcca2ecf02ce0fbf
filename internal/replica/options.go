package replica

// Node construction options: one per concern a deployment varies —
// where to store and how durably, whom to talk to and how often, how
// long a silent peer may stall an exchange, what transport to use, and
// whether to observe the node.

import (
	"path/filepath"
	"strings"
	"time"

	"repro/internal/disk"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/store"
)

// nodeConfig collects a node's construction-time settings: one value
// per concern. Everything else a node runs on is a constant or derives
// from one of these (see syncTimeout and meshConfig).
type nodeConfig struct {
	storageDir string
	fsync      disk.Policy
	// peers seeds the mesh engine's supervised peer set; meshInterval is
	// its round period (zero keeps the engine default), from which the
	// engine derives jitter and backoff.
	peers        []string
	meshInterval time.Duration
	// transport overrides how the node dials and listens (nil = TCP).
	transport Transport
	// syncTO is the per-read/write idle bound of a sync exchange; the
	// whole-session bound and the quarantine schedule scale with it.
	syncTO time.Duration
	// obsEnabled turns on the node's metrics registry and flight
	// recorder (WithObservability, or WithDebugAddr which implies it);
	// debugAddr, when set, serves the live debug endpoint. obsReg and
	// obsRec are resolved by NewNode once the options are folded, so
	// the store, disk and mesh layers all share the node's registry.
	obsEnabled bool
	debugAddr  string
	obsReg     *obs.Registry
	obsRec     *obs.Recorder
}

// maxInbound caps concurrent inbound sync sessions: connections
// accepted past it are closed promptly and counted in
// SyncStats.InboundShed, so a dial storm cannot pile up goroutines.
const maxInbound = 64

// Bounds that scale with the sync idle bound T (30s by default): a
// whole session may run 6·T, and a quarantined peer is retried after
// 2·T, doubling per further violation up to 30·T.
const (
	sessionPerIdle       = 6
	quarantineMinPerIdle = 2
	quarantineMaxPerIdle = 30
)

// transportOrTCP resolves the node's transport.
func (c *nodeConfig) transportOrTCP() Transport {
	if c.transport != nil {
		return c.transport
	}
	return TCPTransport{}
}

// syncTimeout resolves the per-operation idle bound.
func (c *nodeConfig) syncTimeout() time.Duration {
	if c.syncTO > 0 {
		return c.syncTO
	}
	return defaultSyncTimeout
}

// NodeOption adjusts node construction.
type NodeOption func(*nodeConfig)

// WithStorage makes the node durable: every object opened on it keeps a
// segmented pack log (internal/disk) in its own subdirectory of dir, and
// reopening a node with the same name over the same directory resumes
// every object with its full history, branches and clocks intact.
func WithStorage(dir string) NodeOption {
	return func(c *nodeConfig) { c.storageDir = dir }
}

// WithFsync sets the fsync policy of the node's object logs; it has no
// effect without WithStorage.
func WithFsync(p disk.Policy) NodeOption {
	return func(c *nodeConfig) { c.fsync = p }
}

// WithPeers seeds the node's always-on sync daemon with peer addresses:
// from construction on, a supervisor goroutine per address runs jittered
// anti-entropy rounds and receives push-on-commit notifications, with
// exponential backoff while a peer is unreachable. Equivalent to calling
// AddPeer for each address right after NewNode.
func WithPeers(addrs ...string) NodeOption {
	return func(c *nodeConfig) { c.peers = append(c.peers, addrs...) }
}

// WithMeshInterval sets the daemon's anti-entropy round period per peer
// (default 2s). The rest of the schedule derives from it: up to a
// quarter interval of jitter per round, and retries after failures from
// an eighth of the interval (at least 10ms) doubling to four intervals.
// Zero and below keep the default.
func WithMeshInterval(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.meshInterval = d }
}

// WithTransport makes the node dial and listen through t instead of
// plain TCP — the injection point for fault-injection transports
// (internal/faultnet) and, later, authenticated ones.
func WithTransport(t Transport) NodeOption {
	return func(c *nodeConfig) { c.transport = t }
}

// WithSyncTimeout bounds how long one read or write of a sync exchange
// may stall before the connection errors out (default 30s). A peer that
// keeps making progress can transfer arbitrarily much; one that goes
// silent is cut off. A whole session may run six times as long (3m by
// default) — the cap on how long a dribbling peer can hold the node's
// sync freeze — and a peer quarantined for protocol violations is
// retried after twice d, doubling to thirty times d (1m and 15m by
// default). Zero and below keep the default.
func WithSyncTimeout(d time.Duration) NodeOption {
	return func(c *nodeConfig) { c.syncTO = d }
}

// WithObservability turns on the node's flight recorder and metrics
// registry: every layer — wire framing, store merges, disk appends,
// mesh rounds, sync sessions — records into one obs.Registry, sync
// sessions leave trace spans retrievable with Trace, and the registry
// is exposed through Registry (and, with WithDebugAddr, over HTTP).
// Off by default; the disabled hot paths pay one nil check per site.
func WithObservability() NodeOption {
	return func(c *nodeConfig) { c.obsEnabled = true }
}

// WithDebugAddr serves the node's debug endpoint on addr ("127.0.0.1:0"
// picks a free port — read it back with DebugAddr): /metrics in
// Prometheus text format, /debug/peepul/snapshot (one JSON document
// unifying sync stats, per-object stats, mesh peer state, the metric
// registry and the recent trace), /debug/peepul/trace, /healthz, and
// the net/http/pprof profiles under /debug/pprof/. Implies
// WithObservability.
func WithDebugAddr(addr string) NodeOption {
	return func(c *nodeConfig) { c.debugAddr, c.obsEnabled = addr, true }
}

// meshConfig assembles the mesh engine configuration.
func (c *nodeConfig) meshConfig() mesh.Config {
	idle := c.syncTimeout()
	return mesh.Config{
		Interval:      c.meshInterval,
		Classify:      classifyFailure,
		QuarantineMin: quarantineMinPerIdle * idle,
		QuarantineMax: quarantineMaxPerIdle * idle,
		Obs:           c.obsReg,
		Recorder:      c.obsRec,
	}
}

// storeOptions assembles the store options for one object, including
// the node's observability registry when enabled.
func (c *nodeConfig) storeOptions() []store.Option {
	if c.obsReg == nil {
		return nil
	}
	return []store.Option{store.WithObs(c.obsReg)}
}

// objectDirName maps an object name to a filesystem-safe directory name:
// alphanumerics, dot, dash and underscore pass through, every other byte
// is %XX-escaped — deterministic, collision-free, and readable for the
// common case of simple names.
func objectDirName(object string) string {
	var b strings.Builder
	b.WriteString("obj-")
	for i := 0; i < len(object); i++ {
		c := object[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
			b.WriteByte(c)
		default:
			const hex = "0123456789ABCDEF"
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xF])
		}
	}
	return b.String()
}

// objectDir is the storage directory of one object's log.
func (c *nodeConfig) objectDir(object string) string {
	return filepath.Join(c.storageDir, objectDirName(object))
}

// logOptions assembles the disk options for one object log.
func (c *nodeConfig) logOptions() []disk.Option {
	opts := []disk.Option{disk.WithFsync(c.fsync)}
	if c.obsReg != nil {
		opts = append(opts, disk.WithObs(c.obsReg))
	}
	return opts
}
