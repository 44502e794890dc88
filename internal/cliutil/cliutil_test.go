package cliutil

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/evaluate"
	"repro/internal/shortest"
)

func TestValidateEvalFlags(t *testing.T) {
	cases := []struct {
		workers, sample int
		wantErr         string
	}{
		{0, 0, ""},
		{8, 100, ""},
		{-1, 0, "-workers"},
		{0, -5, "-sample"},
		{-2, -2, "-workers"}, // first failure wins
	}
	for _, c := range cases {
		err := ValidateEvalFlags(c.workers, c.sample)
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("ValidateEvalFlags(%d, %d) = %v, want nil", c.workers, c.sample, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("ValidateEvalFlags(%d, %d) = %v, want error mentioning %q", c.workers, c.sample, err, c.wantErr)
		}
	}
}

func TestParseEvalFlags(t *testing.T) {
	cases := []struct {
		workers, sample int
		distmode        string
		want            evaluate.DistMode
		wantErr         string
	}{
		{0, 0, "dense", evaluate.DistDense, ""},
		{4, 1000, "stream", evaluate.DistStream, ""},
		{0, 0, "", evaluate.DistAuto, ""},
		{-1, 0, "dense", 0, "-workers"},
		{0, -1, "dense", 0, "-sample"},
		{0, 0, "turbo", 0, "distance mode"},
		{4, 1000, "cache", 0, "distance mode"},
	}
	for _, c := range cases {
		mode, err := ParseEvalFlags(c.workers, c.sample, c.distmode)
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("ParseEvalFlags(%d,%d,%q) = %v, want nil", c.workers, c.sample, c.distmode, err)
			}
			if mode != c.want {
				t.Fatalf("ParseEvalFlags(%d,%d,%q) mode = %v, want %v", c.workers, c.sample, c.distmode, mode, c.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("ParseEvalFlags(%d,%d,%q) err = %v, want error mentioning %q", c.workers, c.sample, c.distmode, err, c.wantErr)
		}
	}
}

func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		batch, benchQueries int
		wantErr             string
	}{
		{1, 0, ""},
		{1024, 100000, ""},
		{0, 0, "-batch"},
		{-8, 0, "-batch"},
		{1024, -1, "-benchqueries"},
	}
	for _, c := range cases {
		err := ValidateServeFlags(c.batch, c.benchQueries)
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("ValidateServeFlags(%d,%d) = %v, want nil", c.batch, c.benchQueries, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("ValidateServeFlags(%d,%d) err = %v, want error mentioning %q", c.batch, c.benchQueries, err, c.wantErr)
		}
	}
}

func TestValidateWeightFlags(t *testing.T) {
	cases := []struct {
		weighted  bool
		maxWeight int
		wantErr   string
	}{
		{false, 0, ""}, // ignored when the metric is hops
		{false, -5, ""},
		{true, 1, ""},
		{true, 1 << 20, ""},
		{true, math.MaxInt32 - 1, ""},
		{true, 0, "-maxweight"},
		{true, -1, "-maxweight"},
		{true, math.MaxInt32, "-maxweight"}, // would wrap in the int32 weight table
	}
	for _, c := range cases {
		err := ValidateWeightFlags(c.weighted, c.maxWeight)
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("ValidateWeightFlags(%v,%d) = %v, want nil", c.weighted, c.maxWeight, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("ValidateWeightFlags(%v,%d) err = %v, want error mentioning %q", c.weighted, c.maxWeight, err, c.wantErr)
		}
	}
}

func TestParseKernelFlag(t *testing.T) {
	cases := []struct {
		kernel   string
		weighted bool
		want     shortest.Kernel
		wantErr  string
	}{
		{"auto", false, shortest.KernelAuto, ""},
		{"", false, shortest.KernelAuto, ""},
		{"scalar", false, shortest.KernelScalar, ""},
		{"batch", false, shortest.KernelBatch, ""},
		{"scalar", true, shortest.KernelScalar, ""}, // weighted runs keep scalar
		{"auto", true, shortest.KernelAuto, ""},
		{"batch", true, shortest.KernelAuto, "-weighted"}, // no Dijkstra batch kernel
		{"simd", false, shortest.KernelAuto, "kernel"},    // unknown: error, no fallback
		{"BATCH", false, shortest.KernelAuto, "kernel"},   // spellings are exact
	}
	for _, c := range cases {
		k, err := ParseKernelFlag(c.kernel, c.weighted)
		if c.wantErr == "" {
			if err != nil || k != c.want {
				t.Fatalf("ParseKernelFlag(%q, %v) = %v, %v; want %v", c.kernel, c.weighted, k, err, c.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("ParseKernelFlag(%q, %v) = %v, want error mentioning %q", c.kernel, c.weighted, err, c.wantErr)
		}
	}
}

func TestValidateNetFlags(t *testing.T) {
	cases := []struct {
		listen      string
		shards      int
		deadline    time.Duration
		maxInFlight int
		wantErr     string
	}{
		{":9000", 1, time.Second, 64, ""},
		{"127.0.0.1:0", 5, 50 * time.Millisecond, 1, ""},
		{"[::1]:9000", 2, time.Minute, 256, ""},
		{"", 1, time.Second, 64, "-listen"},
		{"localhost", 1, time.Second, 64, "host:port"},
		{":9000", 0, time.Second, 64, "-shards"},
		{":9000", -3, time.Second, 64, "-shards"},
		{":9000", MaxShards + 1, time.Second, 64, "-shards"},
		{":9000", 1, 0, 64, "-deadline"},
		{":9000", 1, -time.Second, 64, "-deadline"},
		{":9000", 1, time.Second, 0, "-maxinflight"},
		{":9000", 1, time.Second, -1, "-maxinflight"},
	}
	for _, c := range cases {
		err := ValidateNetFlags(c.listen, c.shards, c.deadline, c.maxInFlight)
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("ValidateNetFlags(%q,%d,%v,%d) = %v, want nil", c.listen, c.shards, c.deadline, c.maxInFlight, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("ValidateNetFlags(%q,%d,%v,%d) = %v, want error mentioning %q", c.listen, c.shards, c.deadline, c.maxInFlight, err, c.wantErr)
		}
	}
}

func TestValidateLoadgenFlags(t *testing.T) {
	cases := []struct {
		rate     int
		duration time.Duration
		batch    int
		wantErr  string
	}{
		{1000, 10 * time.Second, 64, ""},
		{1, time.Millisecond, 1, ""},
		{0, time.Second, 64, "-rate"},
		{-100, time.Second, 64, "-rate"},
		{1000, 0, 64, "-duration"},
		{1000, -time.Second, 64, "-duration"},
		{1000, 2 * time.Hour, 64, "-duration"},
		{1000, time.Second, 0, "-batch"},
		{1000, time.Second, -8, "-batch"},
	}
	for _, c := range cases {
		err := ValidateLoadgenFlags(c.rate, c.duration, c.batch)
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("ValidateLoadgenFlags(%d,%v,%d) = %v, want nil", c.rate, c.duration, c.batch, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("ValidateLoadgenFlags(%d,%v,%d) = %v, want error mentioning %q", c.rate, c.duration, c.batch, err, c.wantErr)
		}
	}
}

func TestParseIntList(t *testing.T) {
	got, err := ParseIntList("-shards", "1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("ParseIntList = %v, %v", got, err)
	}
	for _, bad := range []string{"", "1,,2", "a", "1,-2", "0", "1,2,zero"} {
		if _, err := ParseIntList("-clients", bad); err == nil || !strings.Contains(err.Error(), "-clients") {
			t.Fatalf("ParseIntList(%q) = %v, want -clients error", bad, err)
		}
	}
}
