package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"neurocard/internal/server"
)

var (
	errDegraded  = errors.New("degraded answer from the fallback estimator")
	errBadAnswer = errors.New("answer is not a finite positive estimate")
)

// client is one load generator's keep-alive connection pool to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// answer is one decoded estimate response.
type answer struct {
	ests     []float64
	degraded bool
}

// post sends one request and returns its body, failing on non-2xx.
func (c *client) post(tr *tracer, span string, parent, req int64, path, ctype string, body []byte) ([]byte, error) {
	end, _ := tr.begin(span, parent, req)
	defer end()
	resp, err := c.hc.Post(c.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// estimate posts one JSON (bin=false) or NCB estimate request and checks the
// answer: every estimate finite and positive, no positional error, not
// degraded.
func (c *client) estimate(tr *tracer, req int64, body []byte, bin bool) (answer, error) {
	end, id := tr.begin("request", 0, req)
	defer end()
	ctype := "application/json"
	if bin {
		ctype = server.ContentTypeBinary
	}
	out, err := c.post(tr, "server.rtt", id, req, "/v1/estimate", ctype, body)
	if err != nil {
		return answer{}, err
	}
	endDec, _ := tr.begin("client.decode", id, req)
	defer endDec()
	var a answer
	var errs []string
	if bin {
		br, err := server.DecodeBinResponse(out)
		if err != nil {
			return answer{}, err
		}
		a.ests, a.degraded, errs = br.Ests, br.Degraded, br.Errs
	} else {
		var er server.EstimateResponse
		if err := json.Unmarshal(out, &er); err != nil {
			return answer{}, err
		}
		a.ests, a.degraded, errs = er.Ests, er.Degraded, er.Errors
		if er.Est != nil {
			a.ests = []float64{*er.Est}
		}
	}
	for i, e := range errs {
		if e != "" {
			return a, fmt.Errorf("query %d: %s", i, e)
		}
	}
	if len(a.ests) == 0 {
		return a, errors.New("empty estimate response")
	}
	for i, v := range a.ests {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return a, fmt.Errorf("query %d: estimate %g: %w", i, v, errBadAnswer)
		}
	}
	if a.degraded {
		return a, errDegraded
	}
	return a, nil
}

// phase is one measured stretch of traffic.
type phase struct {
	Name     string             `json:"name"`
	Rate     float64            `json:"offered_qps,omitempty"` // open loop: requests/s offered
	Seconds  float64            `json:"seconds"`
	Ops      *tally             `json:"ops"`
	Queries  int64              `json:"queries_answered"`
	Latency  latStats           `json:"latency"`
	LateP99  float64            `json:"generator_late_p99_ms,omitempty"`
	Backlog  bool               `json:"backlog_grows,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
	AllocBPQ float64            `json:"alloc_bytes_per_query"`

	lats []time.Duration
}

// sendFunc issues request i and reports the queries it answered.
type sendFunc func(i int) (queries int, err error, degraded bool)

// openLoop offers rate requests/s for dur on conns connections. Request i is
// due at start + i/rate and its latency runs from that due time, so a stall
// delays every request queued behind it. The generator's lateness (send
// time − due time) is reported, and the backlog counts as growing when the
// last quarter of requests went out later than the first quarter by more
// than one inter-arrival gap and 5 ms.
func openLoop(name string, rate float64, dur time.Duration, conns int, send sendFunc) *phase {
	n := max(1, int(rate*dur.Seconds()))
	gap := time.Duration(float64(time.Second) / rate)
	p := &phase{Name: name, Rate: rate, Ops: &tally{}, lats: make([]time.Duration, n)}
	late := make([]time.Duration, n)
	var next atomic.Int64
	var answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late[i] = time.Since(due)
				q, err, deg := send(i)
				p.lats[i] = time.Since(due)
				answered.Add(int64(q))
				p.Ops.add(err, deg)
			}
		}()
	}
	wg.Wait()
	p.Seconds = time.Since(start).Seconds()
	p.Queries = answered.Load()
	p.Latency = summarize(p.lats)
	p.LateP99 = summarize(late).Tailms
	q := max(1, n/4)
	first, last := meanDur(late[:q]), meanDur(late[n-q:])
	p.Backlog = last-first > max(gap, 5*time.Millisecond)
	return p
}

func meanDur(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range v {
		s += d
	}
	return s / time.Duration(len(v))
}
