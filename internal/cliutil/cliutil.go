// Package cliutil holds the flag validation shared by the routelab and
// memreq CLIs, so both reject nonsense evaluation flags with the same
// clear errors instead of silently misbehaving (a negative -sample used
// to mean "exhaustive", a negative -workers fell through to a pool of
// one — both now fail fast), and so the rules are unit-testable without
// spawning a process.
package cliutil

import (
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/evaluate"
	"repro/internal/shortest"
)

// ValidateEvalFlags checks the evaluation flags common to routelab and
// memreq. workers == 0 means "all cores" and sample == 0 means
// "exhaustive"; anything negative is an error, not a silent fallback.
func ValidateEvalFlags(workers, sample int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all cores), got %d", workers)
	}
	if sample < 0 {
		return fmt.Errorf("-sample must be >= 0 (0 = exhaustive), got %d", sample)
	}
	return nil
}

// ParseEvalFlags validates the common evaluation flags and resolves the
// -distmode string, returning the mode for evaluate.Options.
func ParseEvalFlags(workers, sample int, distmode string) (evaluate.DistMode, error) {
	if err := ValidateEvalFlags(workers, sample); err != nil {
		return evaluate.DistAuto, err
	}
	return evaluate.ParseDistMode(distmode)
}

// ParseKernelFlag resolves the -kernel string for the hop-metric
// distance kernel (scalar BFS vs 64-source MS-BFS batch). A value
// outside the known set {auto, scalar, batch} is an explicit error,
// never a silent fallback — the same policy ParseEvalFlags applies to
// -distmode. batch is a hop-metric kernel (Dijkstra rows share no
// scans), so combining it with -weighted is rejected here, at flag
// time, instead of failing deep inside a run.
func ParseKernelFlag(kernel string, weighted bool) (shortest.Kernel, error) {
	k, err := shortest.ParseKernel(kernel)
	if err != nil {
		return shortest.KernelAuto, err
	}
	if weighted && k == shortest.KernelBatch {
		return shortest.KernelAuto, fmt.Errorf("-kernel batch serves only the hop metric (MS-BFS shares BFS arc scans); drop -weighted or use -kernel auto|scalar")
	}
	return k, nil
}

// ValidateServeFlags checks routeserve's serving flags: the batch size
// must be positive (a batch of zero queries would spin forever making
// no progress) and the bench query count nonnegative. Workers are
// validated by ValidateEvalFlags alongside the shared flags; this
// covers the serving-only ones, with the same fail-fast contract —
// negative values are errors, never silent fallbacks.
func ValidateServeFlags(batch, benchQueries int) error {
	if batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", batch)
	}
	if benchQueries < 0 {
		return fmt.Errorf("-benchqueries must be >= 0 (0 = default), got %d", benchQueries)
	}
	return nil
}

// MaxShards caps -shards: beyond this a "cluster" is a typo, and the
// per-shard listener/goroutine cost would dwarf any real partition of
// a MaxWireOrder-bounded router space.
const MaxShards = 1 << 10

// ValidateNetFlags checks routeserve's network-serving flags. The
// listen address must be host:port shaped (net.SplitHostPort, so ":0"
// and "[::1]:9000" both pass and "localhost" alone fails fast), the
// shard count must be in [1, MaxShards], the per-connection deadline
// positive and the admission cap at least 1 — zero or negative values
// are errors, never silent defaults, the same contract every other
// Validate*Flags here applies. The shards <= n check lives with the
// shard map (the graph order is unknown at flag time).
func ValidateNetFlags(listen string, shards int, deadline time.Duration, maxInFlight int) error {
	if listen == "" {
		return fmt.Errorf("-listen must not be empty")
	}
	if _, _, err := net.SplitHostPort(listen); err != nil {
		return fmt.Errorf("-listen %q is not a host:port address: %w", listen, err)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", shards)
	}
	if shards > MaxShards {
		return fmt.Errorf("-shards must be <= %d, got %d", MaxShards, shards)
	}
	if deadline <= 0 {
		return fmt.Errorf("-deadline must be positive, got %v", deadline)
	}
	if maxInFlight < 1 {
		return fmt.Errorf("-maxinflight must be >= 1, got %d", maxInFlight)
	}
	return nil
}

// ValidateLoadgenFlags checks loadgen's open-loop knobs: a positive
// arrival rate, a positive bounded duration and a positive batch size.
// A zero rate would schedule no arrivals and a negative one is
// nonsense; both fail fast instead of producing an empty BENCH file.
func ValidateLoadgenFlags(rate int, duration time.Duration, batch int) error {
	if rate < 1 {
		return fmt.Errorf("-rate must be >= 1 query/s, got %d", rate)
	}
	if duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", duration)
	}
	if duration > time.Hour {
		return fmt.Errorf("-duration must be <= 1h (open-loop latencies are recorded in memory), got %v", duration)
	}
	if batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", batch)
	}
	return nil
}

// ParseIntList parses a comma-separated list of positive ints ("1,2,8")
// for loadgen's sweep flags. Empty entries, malformed numbers, zeros
// and negatives are errors naming the offending flag.
func ParseIntList(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("%s must not be empty", flagName)
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s: bad entry %q: %w", flagName, p, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("%s: entries must be >= 1, got %d", flagName, v)
		}
		out = append(out, v)
	}
	return out, nil
}

// ValidateWeightFlags checks the weighted-metric flags: -maxweight must
// name a usable cost range when -weighted is on (it is ignored
// otherwise, so a script can set both unconditionally). Costs are int32
// and MaxInt32 is the Unreachable sentinel, so the largest admissible
// cost — and therefore -maxweight — is MaxInt32-1; anything larger
// would silently wrap in the int32 weight table.
func ValidateWeightFlags(weighted bool, maxWeight int) error {
	if !weighted {
		return nil
	}
	if maxWeight < 1 {
		return fmt.Errorf("-maxweight must be >= 1 with -weighted, got %d", maxWeight)
	}
	if maxWeight > math.MaxInt32-1 {
		return fmt.Errorf("-maxweight must be <= %d (costs are int32, MaxInt32 is the unreachable sentinel), got %d", math.MaxInt32-1, maxWeight)
	}
	return nil
}
