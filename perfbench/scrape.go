package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of graphd's /metrics and /debug/vars, taken
// before and after a phase; the difference of two is the phase's
// counts.
type scrape struct {
	series   map[string]float64 // full series text (name{labels}) → value
	memstats memstats
}

// memstats is the part of expvar's runtime.MemStats the benchmark uses.
type memstats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	PauseTotalNs uint64
}

func takeScrape(ctx context.Context, hc *http.Client, debugBase string) (scrape, error) {
	text, err := getRaw(ctx, hc, debugBase+"/metrics")
	if err != nil {
		return scrape{}, err
	}
	series, err := parseProm(text)
	if err != nil {
		return scrape{}, err
	}
	vars, err := getRaw(ctx, hc, debugBase+"/debug/vars")
	if err != nil {
		return scrape{}, err
	}
	var v struct {
		Memstats memstats `json:"memstats"`
	}
	if err := json.Unmarshal(vars, &v); err != nil {
		return scrape{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return scrape{series: series, memstats: v.Memstats}, nil
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(text []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta accumulates after-minus-before differences of scrapes over one
// or more phase windows.
type delta struct {
	series                       map[string]float64
	mallocs, allocBytes, pauseNs float64
}

func (d *delta) add(before, after scrape) {
	if d.series == nil {
		d.series = map[string]float64{}
	}
	for k, v := range after.series {
		d.series[k] += v - before.series[k]
	}
	d.mallocs += float64(after.memstats.Mallocs - before.memstats.Mallocs)
	d.allocBytes += float64(after.memstats.TotalAlloc - before.memstats.TotalAlloc)
	d.pauseNs += float64(after.memstats.PauseTotalNs - before.memstats.PauseTotalNs)
}

// sum adds every series of the named family (any labels).
func (d *delta) sum(name string) float64 {
	var t float64
	for k, v := range d.series {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// meanMs is a histogram family's mean over the windows, in ms (0 when
// they observed nothing).
func (d *delta) meanMs(family string) float64 {
	n := d.sum(family + "_count")
	if n == 0 {
		return 0
	}
	return 1000 * d.sum(family+"_sum") / n
}
