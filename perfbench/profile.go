package main

// Per-layer CPU attribution. A traced run records a CPU profile of the
// measured window and charges every sample to the layer it was spent in:
// the innermost stack frame that belongs to this repository decides
// (repro/internal/<pkg> is layer <pkg>; package main is the benchmark's
// own client code), so time in the runtime or standard library counts
// against the layer that called it — allocation from a matrix kernel is
// matrix time, JSON encoding inside the server's handler is serve time.
// Samples with no repository frame are garbage collection, the net/http
// machinery, or other runtime work. The QBD solver's time is further
// split by stage (see cpuShares).
//
// The profile is decoded here with a minimal protobuf reader so the
// benchmark stays standard-library only.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime/pprof"
	"strings"
)

type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// cpuShares splits the sampled CPU time of a window two ways, each as
// shares of the total: by layer (innermost repository frame), and by
// QBD solver stage (innermost internal/qbd frame's source file, so the
// matrix kernels a stage calls count towards that stage).
type cpuShares struct {
	layer map[string]float64
	stage map[string]float64
}

// qbdStages maps internal/qbd source files to solver stages.
var qbdStages = map[string]string{
	"rmatrix.go": "ladder", "newton.go": "ladder", // R ladder and its certification
	"solve.go": "boundary", // boundary solve, mass/balance certificate, measures
}

// stop ends the profile and attributes its samples.
func (p *cpuProfile) stop() (*cpuShares, error) {
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	sh := &cpuShares{layer: map[string]float64{}, stage: map[string]float64{}}
	var total float64
	for _, s := range stacks {
		total += s.weight
		sh.layer[layerOf(s.frames)] += s.weight
		for _, f := range s.frames {
			if strings.HasPrefix(f.fn, "repro/internal/qbd.") {
				sh.stage[qbdStages[path.Base(f.file)]] += s.weight
				break
			}
		}
	}
	for _, m := range []map[string]float64{sh.layer, sh.stage} {
		for k := range m {
			m[k] /= total
		}
	}
	return sh, nil
}

// solverLayers are the repository packages reported as their own layer;
// any other repository package is folded into "other".
var solverLayers = map[string]bool{
	"matrix": true, "qbd": true, "core": true, "phase": true,
	"markov": true, "sweep": true, "serve": true,
}

// layerOf charges one sampled stack (innermost frame first).
func layerOf(frames []frame) string {
	for _, fr := range frames {
		if strings.HasPrefix(fr.fn, "main.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(fr.fn, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if solverLayers[pkg] {
				return pkg
			}
			return "other"
		}
	}
	for _, fr := range frames {
		switch f := fr.fn; {
		case strings.HasPrefix(f, "runtime.gc"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.markroot"):
			return "gc"
		case strings.HasPrefix(f, "net/http."), strings.HasPrefix(f, "net."):
			return "http"
		}
	}
	return "other"
}

type sampledStack struct {
	frames []frame // innermost first, inlined frames expanded
	weight float64 // CPU nanoseconds
}

type frame struct{ fn, file string }

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes: samples (location ids + values), locations (lines referencing
// functions), functions (name string indexes) and the string table.
func decodeProfile(gz []byte) ([]sampledStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{}  // location id → function ids, innermost first
		funcs    = map[uint64][2]uint64{} // function id → name, file string indexes
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					s.values = appendPacked(s.values, v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name [2]uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name[0] = v
				case 4:
					name[1] = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sampledStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("sample without a cpu value")
		}
		st := sampledStack{weight: float64(s.values[1])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				st.frames = append(st.frames, frame{fn: str(funcs[f][0]), file: str(funcs[f][1])})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint and fixed
// fields arrive as v, length-delimited ones as data.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("malformed protobuf key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("malformed protobuf varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated protobuf fixed field")
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated protobuf field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive either as
// one value (v) or packed into data.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
