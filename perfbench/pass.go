package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"sort"
	"syscall"
	"time"
)

// pass collects what one execution of a workload's fixed work produced.
type pass struct {
	// segs holds the CPU time of the pass's segments in order: its
	// campaign calls, or blocks of segmentEvents simulation events. A seed
	// cuts every pass of its inputs into the same segments.
	segs  []time.Duration
	units []unitResult
	// spans holds benchmark-side timings of public calls by span name.
	spans map[string][]time.Duration
	// counters are the program's own counters; nil on untraced passes.
	counters *counters
}

// unitResult is one unit group of a pass: a campaign call, or all jobs of a
// churn. value is digested after the pass, outside its timing and
// allocation accounting.
type unitResult struct {
	key   string // reference key
	n     int    // units in the group
	value any
	err   error
}

// call times one campaign call as a unit keyed and spanned by name.
func (p *pass) call(name string, fn func() (any, error)) { p.callAs(name, name, fn) }

// callAs times one campaign call as a unit with reference key key and span
// experiments.<span>_s.
func (p *pass) callAs(key, span string, fn func() (any, error)) {
	t, c := time.Now(), cpuTime()
	v, err := fn()
	p.segs = append(p.segs, cpuTime()-c)
	p.span("experiments."+span, time.Since(t))
	p.unit(key, 1, v, err)
}

// cpuTime returns the CPU time the process has used. With one P it is the
// host time of the benchmark's work, less the time the host gave its CPU
// to others.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err)) // only EFAULT, a bug
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *pass) unit(key string, n int, v any, err error) {
	p.units = append(p.units, unitResult{key: key, n: n, value: v, err: err})
}

func (p *pass) span(name string, d time.Duration) {
	if p.spans == nil {
		p.spans = make(map[string][]time.Duration)
	}
	p.spans[name] = append(p.spans[name], d)
}

// digest hashes a result's deterministic content: float bits, integers,
// strings, and the sorted contents of maps. Two results digest equally
// exactly when they are bit-identical.
func digest(v any) uint64 {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(v))
	return h.Sum64()
}

var errorType = reflect.TypeOf((*error)(nil)).Elem()

func hashValue(w io.Writer, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		w.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Invalid:
		put(0)
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.String:
		put(uint64(v.Len()))
		io.WriteString(w, v.String())
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(w, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(w, v.Field(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		put(uint64(len(keys)))
		for _, k := range keys {
			hashValue(w, k)
			hashValue(w, v.MapIndex(k))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		if v.Type().Implements(errorType) && v.CanInterface() {
			io.WriteString(w, v.Interface().(error).Error())
			return
		}
		hashValue(w, v.Elem())
	default:
		panic(fmt.Sprintf("perfbench: cannot digest a %s", v.Type()))
	}
}
