// Package resultstore is a content-addressed, on-disk store of
// per-replicate simulation results. Each entry is keyed by the SHA-256
// of (canonical configuration, seed, simulation epoch), so a stored
// result can stand in for a simulation run if and only if rerunning it
// would reproduce the stored output bit for bit:
//
//   - the canonical form (rtdbs.Config.Canonical) makes the key
//     independent of how the configuration was built — axis application
//     order, defaulted versus explicit fields, stray parameters of an
//     unselected policy;
//   - the seed is part of the configuration, so every replicate of a
//     sweep point has its own entry;
//   - the epoch salt (rtdbs.SimEpoch) invalidates every entry whenever
//     the simulator's semantics change.
//
// The sweep engine in internal/runner consults the store before every
// (point, replicate) simulation and fills it after, which makes warm
// reruns of a figure near-free and incremental grid refinement pay only
// for the points it adds.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"pmm/internal/rtdbs"
)

// formatVersion versions the canonical serialization itself; bump it
// together with any change to CanonicalText's output.
// v2: multi-tenant partitioned runs — tenants and syncInterval joined
// the canonical text (Shards is a pure execution knob and stays out).
// v3: count-batched workloads — class lines carry population and
// modulation, and admitQueue/syncStretch joined the config lines.
// v4: a second pure execution knob, the intra-cell disk cut, joined
// Config. Like Shards it was never serialized, so the canonical text
// did not change; the knob has since been removed and v4 stays.
const formatVersion = "v4"

// Key is the content address of one simulation result: the SHA-256 of
// the epoch-salted canonical configuration text.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor computes the content address of cfg's simulation result under
// the current simulation epoch.
func KeyFor(cfg rtdbs.Config) Key {
	return sha256.Sum256([]byte(CanonicalText(cfg)))
}

// CanonicalText serializes cfg canonically: defaults applied, policy-
// irrelevant fields dropped, every field emitted by this writer in one
// fixed order with floats formatted to round-trip exactly. The epoch
// and format version lead the text so keys from different simulator
// semantics or serialization layouts can never collide.
func CanonicalText(cfg rtdbs.Config) string {
	c := cfg.Canonical()
	var b strings.Builder
	line := func(tag string, vals ...any) {
		b.WriteString(tag)
		for _, v := range vals {
			b.WriteByte(' ')
			switch x := v.(type) {
			case float64:
				b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
			case int:
				b.WriteString(strconv.Itoa(x))
			case int64:
				b.WriteString(strconv.FormatInt(x, 10))
			case string:
				// Length-prefix strings so a crafted name cannot forge
				// field boundaries.
				fmt.Fprintf(&b, "%d:%s", len(x), x)
			default:
				panic(fmt.Sprintf("resultstore: unhandled canonical type %T", v))
			}
		}
		b.WriteByte('\n')
	}

	line("pmm-result", formatVersion)
	line("epoch", rtdbs.SimEpoch)
	line("seed", c.Seed)
	line("duration", c.Duration)
	line("cpuMips", c.CPUMips)
	line("disk", c.Disk.NumDisks, c.Disk.SeekFactorMS, c.Disk.RotationTime,
		c.Disk.NumCylinders, c.Disk.CylinderSize, c.Disk.PagesPerTrack, c.Disk.BlockSize)
	line("memoryPages", c.MemoryPages)
	line("fudge", c.FudgeFactor)
	line("tuplesPerPage", c.TuplesPerPage)
	line("groups", len(c.Groups))
	for _, g := range c.Groups {
		line("group", g.RelPerDisk, g.SizeRange[0], g.SizeRange[1])
	}
	line("classes", len(c.Classes))
	for _, cl := range c.Classes {
		// Canonical() has already normalized Population ≤ 1 to 0 and
		// zeroed the unselected modulation kind's parameters.
		m := cl.Modulation
		vals := []any{cl.Name, int(cl.Kind), cl.ArrivalRate,
			cl.SlackRange[0], cl.SlackRange[1], cl.Population,
			int(m.Kind), m.Period, m.Amplitude, m.Phase,
			m.BurstFactor, m.MeanNormal, m.MeanBurst, len(cl.RelGroups)}
		for _, rg := range cl.RelGroups {
			vals = append(vals, rg)
		}
		line("class", vals...)
	}
	line("phases", len(c.Phases))
	for _, ph := range c.Phases {
		vals := []any{ph.Duration, len(ph.Rates)}
		for _, r := range ph.Rates {
			vals = append(vals, r)
		}
		line("phase", vals...)
	}
	line("policy", int(c.Policy.Kind), c.Policy.MPLLimit)
	switch c.Policy.Kind {
	case rtdbs.PolicyPMM, rtdbs.PolicyFairPMM:
		p := c.Policy.PMM
		line("pmm", p.SampleSize, p.UtilLow, p.UtilHigh, p.AdaptConf, p.ChangeConf, p.MaxTarget)
	}
	if c.Policy.Kind == rtdbs.PolicyFairPMM {
		f := c.Policy.Fairness
		vals := []any{f.Gain, f.Window, len(f.Weights)}
		for _, w := range f.Weights {
			vals = append(vals, w)
		}
		line("fairness", vals...)
	}
	line("paceFactor", c.PaceFactor)
	line("admitQueue", c.AdmitQueue)
	// Canonical() zeroes the broker fields for single-tenant configs and
	// always zeroes Shards, which never appears here: every Shards value
	// replays to the same result, so all of them share one key.
	line("tenants", c.Tenants)
	line("syncInterval", c.SyncInterval)
	line("syncStretch", c.SyncStretch)
	return b.String()
}
