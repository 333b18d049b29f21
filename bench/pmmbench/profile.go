package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The standard library writes it but ships no reader, so this file
// decodes the few fields the layer fold needs: samples (location ids
// and values), locations (line entries, innermost inlined call first),
// functions (name and file) and the string table.

type pbLine struct{ fn uint64 }

type pbFunction struct{ name, file int64 }

type profile struct {
	samples   []pbSample
	locations map[uint64][]pbLine
	functions map[uint64]pbFunction
	strings   []string
}

type pbSample struct {
	locs   []uint64
	values []int64
}

var errTruncated = errors.New("profile: truncated message")

// pbField iterates the fields of one protobuf message.
type pbField struct {
	buf  []byte
	num  int
	wire int
	v    uint64 // varint or fixed value
	data []byte // length-delimited payload
}

func (f *pbField) next() (bool, error) {
	if len(f.buf) == 0 {
		return false, nil
	}
	key, n := binary.Uvarint(f.buf)
	if n <= 0 {
		return false, errTruncated
	}
	f.buf = f.buf[n:]
	f.num, f.wire = int(key>>3), int(key&7)
	switch f.wire {
	case 0:
		f.v, n = binary.Uvarint(f.buf)
		if n <= 0 {
			return false, errTruncated
		}
		f.buf = f.buf[n:]
	case 1:
		if len(f.buf) < 8 {
			return false, errTruncated
		}
		f.v = binary.LittleEndian.Uint64(f.buf)
		f.buf = f.buf[8:]
	case 2:
		l, n := binary.Uvarint(f.buf)
		if n <= 0 || uint64(len(f.buf)-n) < l {
			return false, errTruncated
		}
		f.data = f.buf[n : n+int(l)]
		f.buf = f.buf[n+int(l):]
	case 5:
		if len(f.buf) < 4 {
			return false, errTruncated
		}
		f.v = uint64(binary.LittleEndian.Uint32(f.buf))
		f.buf = f.buf[4:]
	default:
		return false, fmt.Errorf("profile: unsupported wire type %d", f.wire)
	}
	return true, nil
}

// varints appends a repeated integer field, packed or not.
func (f *pbField) varints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]pbLine{}, functions: map[uint64]pbFunction{}}
	top := pbField{buf: raw}
	for {
		ok, err := top.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return p, nil
		}
		switch top.num {
		case 2:
			err = p.parseSample(top.data)
		case 4:
			err = p.parseLocation(top.data)
		case 5:
			err = p.parseFunction(top.data)
		case 6:
			p.strings = append(p.strings, string(top.data))
		}
		if err != nil {
			return nil, err
		}
	}
}

func (p *profile) parseSample(b []byte) error {
	var s pbSample
	var vals []uint64
	f := pbField{buf: b}
	for {
		ok, err := f.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch f.num {
		case 1:
			if s.locs, err = f.varints(s.locs); err != nil {
				return err
			}
		case 2:
			if vals, err = f.varints(vals); err != nil {
				return err
			}
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	p.samples = append(p.samples, s)
	return nil
}

func (p *profile) parseLocation(b []byte) error {
	var id uint64
	var lines []pbLine
	f := pbField{buf: b}
	for {
		ok, err := f.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch f.num {
		case 1:
			id = f.v
		case 4:
			lf := pbField{buf: f.data}
			var ln pbLine
			for {
				ok, err := lf.next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if lf.num == 1 {
					ln.fn = lf.v
				}
			}
			lines = append(lines, ln)
		}
	}
	p.locations[id] = lines
	return nil
}

func (p *profile) parseFunction(b []byte) error {
	var id uint64
	var fn pbFunction
	f := pbField{buf: b}
	for {
		ok, err := f.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch f.num {
		case 1:
			id = f.v
		case 2:
			fn.name = int64(f.v)
		case 4:
			fn.file = int64(f.v)
		}
	}
	p.functions[id] = fn
	return nil
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// packageLayers maps a package of module pmm to its layer. internal/sim
// and internal/rtdbs are split further by source file in fileLayer.
var packageLayers = map[string]string{
	"pmm/internal/query":       "query",
	"pmm/internal/join":        "join",
	"pmm/internal/extsort":     "extsort",
	"pmm/internal/buffer":      "buffer",
	"pmm/internal/disk":        "disk",
	"pmm/internal/cpu":         "cpu",
	"pmm/internal/policy":      "policy",
	"pmm/internal/core":        "policy",
	"pmm/internal/workload":    "workload",
	"pmm/internal/catalog":     "workload",
	"pmm/internal/runner":      "runner",
	"pmm/internal/resultstore": "resultstore",
}

var simFileLayers = map[string]string{
	"kernel.go":    "sim.kernel",
	"wheel.go":     "sim.kernel",
	"inline.go":    "sim.procs",
	"task.go":      "sim.procs",
	"proc.go":      "sim.procs",
	"arena.go":     "sim.procs",
	"gate.go":      "sim.sync",
	"server.go":    "sim.sync",
	"meter.go":     "sim.sync",
	"rng.go":       "sim.rng",
	"partition.go": "sim.partition",
}

// fileLayer attributes a frame of module pmm to a layer: by source file
// inside internal/sim (unknown files count as kernel) and internal/rtdbs,
// by package elsewhere, and to "other" for packages outside the table.
func fileLayer(pkg, file string) string {
	base := path.Base(file)
	switch pkg {
	case "pmm/internal/sim":
		if l, ok := simFileLayers[base]; ok {
			return l
		}
		return "sim.kernel"
	case "pmm/internal/rtdbs":
		if base == "sharded.go" || base == "disksharded.go" {
			return "rtdbs.sharded"
		}
		return "rtdbs"
	}
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	return "other"
}

// funcPackage returns the import path of a Go function symbol such as
// "pmm/internal/sim.(*Kernel).Step".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// foldLayers charges each sample's CPU time to the innermost frame that
// belongs to module pmm (or to the benchmark itself), folded by layer.
// Samples with no such frame are runtime work. It returns seconds per
// layer and the number of samples.
func foldLayers(p *profile) (map[string]float64, int) {
	out := map[string]float64{}
	layerOf := map[uint64]string{} // per location id
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1]
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			if l, ok := layerOf[loc]; ok {
				if l != "" {
					layer = l
					break
				}
				continue
			}
			layerOf[loc] = ""
			for _, ln := range p.locations[loc] {
				fn := p.functions[ln.fn]
				name := p.str(fn.name)
				pkg := funcPackage(name)
				switch {
				case pkg == "main":
					layerOf[loc] = "bench"
				case pkg == "pmm" || strings.HasPrefix(pkg, "pmm/"):
					layerOf[loc] = fileLayer(pkg, p.str(fn.file))
				default:
					continue
				}
				layer = layerOf[loc]
				break frames
			}
		}
		out[layer] += float64(ns) / 1e9
	}
	return out, len(p.samples)
}
