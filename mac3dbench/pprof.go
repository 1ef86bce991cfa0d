package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileLayers are the packages the pprof.<layer>.share metrics name.
// Samples whose leaf frame lies elsewhere count as "other".
var profileLayers = []string{"core", "cpu", "hmc", "noc", "numa", "queue", "obs", "runtime", "other"}

// leafLayerSamples decodes a gzipped CPU profile as runtime/pprof
// writes it (profile.proto) and counts samples by the layer of each
// sample's leaf frame: the innermost inlined function of its first
// location. Only the fields needed for that are read.
func leafLayerSamples(gz []byte, counts map[string]int) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	var (
		samples   [][]byte
		leafFunc  = map[uint64]uint64{} // location id -> function id
		funcName  = map[uint64]int64{}  // function id -> string index
		strtab    []string
		decodeErr error
	)
	err = protoFields(raw, func(num int, v uint64, data []byte) {
		switch num {
		case 2:
			samples = append(samples, data)
		case 4:
			id, fn, err := decodeLocation(data)
			decodeErr = errors.Join(decodeErr, err)
			leafFunc[id] = fn
		case 5:
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, protoFields(data, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6:
			strtab = append(strtab, string(data))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	for _, s := range samples {
		var first uint64
		var haveLoc bool
		var count uint64
		var haveCount bool
		err := protoFields(s, func(num int, v uint64, data []byte) {
			switch {
			case num == 1 && !haveLoc:
				first, haveLoc = firstVarint(v, data)
			case num == 2 && !haveCount:
				count, haveCount = firstVarint(v, data)
			}
		})
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		layer := "other"
		if idx, ok := funcName[leafFunc[first]]; haveLoc && ok && idx >= 0 && int(idx) < len(strtab) {
			layer = layerOf(strtab[idx])
		}
		counts[layer] += int(count)
	}
	return nil
}

// decodeLocation returns a location's id and the function of its
// first line, the innermost frame when functions were inlined.
func decodeLocation(data []byte) (id, fn uint64, err error) {
	var haveLine bool
	err = protoFields(data, func(num int, v uint64, line []byte) {
		switch {
		case num == 1:
			id = v
		case num == 4 && !haveLine:
			haveLine = true
			_ = protoFields(line, func(num int, v uint64, _ []byte) {
				if num == 1 {
					fn = v
				}
			})
		}
	})
	return id, fn, err
}

// firstVarint returns the first value of a repeated varint field,
// whether it arrived unpacked (v) or packed (data).
func firstVarint(v uint64, data []byte) (uint64, bool) {
	if data == nil {
		return v, true
	}
	x, n := binary.Uvarint(data)
	return x, n > 0
}

// protoFields walks the top-level fields of a protobuf message,
// passing varint values as v and length-delimited payloads as data.
// Fixed-width fields are skipped.
func protoFields(b []byte, fn func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(num, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// layerOf maps a symbol such as "mac3d/internal/core.(*ARQ).Push" to
// its layer: the mac3d internal package, "runtime" for the Go runtime
// (including the collector and the allocator), or "other".
func layerOf(symbol string) string {
	if i := strings.IndexByte(symbol, '['); i >= 0 {
		symbol = symbol[:i] // type arguments may contain package paths
	}
	slash := strings.LastIndexByte(symbol, '/')
	pkg := symbol
	if dot := strings.IndexByte(symbol[slash+1:], '.'); dot >= 0 {
		pkg = symbol[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "mac3d/internal/"):
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, "mac3d/internal/"), "/")
		for _, l := range profileLayers {
			if l == layer {
				return layer
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
