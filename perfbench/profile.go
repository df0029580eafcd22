package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The CPU profile is folded by the package of each sample's innermost
// frame. This file decodes the few fields of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) the fold needs, so the
// benchmark depends on the standard library alone.

// foldModules maps a profess package to its layer name; the root package
// is the sweep engine (planner, executor, run cache, arena glue).
var foldModules = map[string]string{
	"profess":                  "sweep",
	"profess/internal/mem":     "mem",
	"profess/internal/event":   "event",
	"profess/internal/cache":   "cache",
	"profess/internal/hybrid":  "hybrid",
	"profess/internal/core":    "core",
	"profess/internal/migrate": "migrate",
	"profess/internal/cpu":     "cpu",
	"profess/internal/trace":   "trace",
	"profess/internal/sim":     "sim",
	"profess/internal/sample":  "sample",
	"profess/internal/lease":   "lease",
}

// foldLayers lists the fold's buckets in report order; "other" takes
// every frame outside the named packages and the Go runtime.
var foldLayers = []string{"mem", "event", "cache", "hybrid", "core", "migrate", "cpu", "trace", "sim", "sample", "lease", "sweep", "runtime", "other"}

const (
	shardFile     = "internal/event/shard.go"
	fastForwardFn = "profess/internal/sim.(*System).fastForward"
)

// fold is a profile's CPU time split by layer.
type fold struct {
	selfS      map[string]float64 // innermost-frame CPU seconds per layer
	totalS     float64
	shardSelfS float64 // innermost frame in the sharded engine's file
	ffCumPct   float64 // share of samples with the fast-forward span on the stack
}

// packageOf returns the import path of a Go symbol name such as
// "profess/internal/mem.(*Channel).pick".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func layerOf(fn string) string {
	pkg := packageOf(fn)
	if l, ok := foldModules[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// foldProfile reads a gzipped CPU profile written by runtime/pprof.
func foldProfile(path string) (*fold, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return p.fold(), nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbFunction struct{ name, file int64 }

// str returns entry i of the string table, or "" when out of range.
func (p *pbProfile) str(i int64) string {
	if i >= 0 && i < int64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

type pbProfile struct {
	samples   []pbSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]pbFunction
	strings   []string
	valueIdx  int // index of the CPU nanoseconds value
}

func (p *pbProfile) fold() *fold {
	f := &fold{selfS: map[string]float64{}}
	var ffNS, totalNS int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || p.valueIdx >= len(s.values) {
			continue
		}
		ns := s.values[p.valueIdx]
		totalNS += ns
		leaf := true
		ff := false
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				fn := p.functions[fid]
				name := p.str(fn.name)
				if leaf {
					f.selfS[layerOf(name)] += float64(ns) / 1e9
					if strings.HasSuffix(p.str(fn.file), shardFile) {
						f.shardSelfS += float64(ns) / 1e9
					}
					leaf = false
				}
				if name == fastForwardFn {
					ff = true
				}
			}
		}
		if ff {
			ffNS += ns
		}
	}
	f.totalS = float64(totalNS) / 1e9
	if totalNS > 0 {
		f.ffCumPct = 100 * float64(ffNS) / float64(totalNS)
	}
	return f
}

// decodeProfile decodes the Profile message fields the fold uses:
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func decodeProfile(data []byte) (*pbProfile, error) {
	p := &pbProfile{locations: map[uint64][]uint64{}, functions: map[uint64]pbFunction{}}
	var sampleTypes [][]byte
	err := walk(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			var s pbSample
			err := walk(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(b, func(field int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4:
					return walk(b, func(field int, v uint64, _ []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var fn pbFunction
			err := walk(b, func(field int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			p.functions[id] = fn
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A CPU profile's sample types are (samples, count) and (cpu,
	// nanoseconds); fold the nanoseconds.
	p.valueIdx = -1
	for i, st := range sampleTypes {
		var typ, unit int64
		if err := walk(st, func(field int, v uint64, _ []byte) error {
			switch field {
			case 1:
				typ = int64(v)
			case 2:
				unit = int64(v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if p.str(typ) == "cpu" && p.str(unit) == "nanoseconds" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, errors.New("no cpu/nanoseconds sample type")
	}
	return p, nil
}

// walk calls fn for each field of a protobuf message: v carries a varint
// field's value, b a length-delimited field's bytes.
func walk(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
			v = l
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated integer field, packed (b non-nil) or not.
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
