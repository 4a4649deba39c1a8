package cliutil

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/evaluate"
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
		{0, 0, "", evaluate.DistDense, ""},
		{-1, 0, "dense", 0, "-workers"},
		{0, -1, "dense", 0, "-sample"},
		{0, 0, "turbo", 0, "distance mode"},
		{4, 1000, "cache", 0, "unknown distance mode"},
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
		batch   int
		wantErr string
	}{
		{1, ""},
		{1024, ""},
		{0, "-batch"},
		{-8, "-batch"},
	}
	for _, c := range cases {
		err := ValidateServeFlags(c.batch)
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("ValidateServeFlags(%d) = %v, want nil", c.batch, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("ValidateServeFlags(%d) err = %v, want error mentioning %q", c.batch, err, c.wantErr)
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
