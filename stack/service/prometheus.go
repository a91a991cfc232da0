// Prometheus text-format rendering of the /metrics snapshot
// (GET /metrics?format=prometheus). Hand-rolled exposition-format
// writer — no client library dependency — emitting the same counters
// as the JSON encoding under stable stackd_* names, so a Prometheus
// scraper and a curl|jq monitor read one source of truth.
package service

import (
	"fmt"
	"io"
	"reflect"
	"sort"
)

// prometheusContentType is the exposition-format content type
// (text format, version 0.0.4).
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// writePrometheus renders snap in the Prometheus text exposition
// format. Metric families are emitted in a fixed order and routes in
// sorted order, so scrapes are deterministic. Latency histograms
// convert to Prometheus convention: cumulative buckets with an le
// label, +Inf bucket equal to _count, and a _sum in the histogram's
// native milliseconds.
func writePrometheus(w io.Writer, snap metricsSnapshot) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("stackd_uptime_seconds", "Seconds since the server started.", snap.UptimeSeconds)
	gauge("stackd_in_flight_requests", "Requests currently being served (excluding this scrape).", snap.InFlight)

	routes := make([]string, 0, len(snap.Endpoints))
	for r := range snap.Endpoints {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	fmt.Fprint(w, "# HELP stackd_requests_total Requests received, by route.\n# TYPE stackd_requests_total counter\n")
	for _, r := range routes {
		fmt.Fprintf(w, "stackd_requests_total{route=%q} %d\n", r, snap.Endpoints[r].Requests)
	}
	fmt.Fprint(w, "# HELP stackd_request_errors_total Responses with status >= 400, by route.\n# TYPE stackd_request_errors_total counter\n")
	for _, r := range routes {
		fmt.Fprintf(w, "stackd_request_errors_total{route=%q} %d\n", r, snap.Endpoints[r].Errors)
	}
	fmt.Fprint(w, "# HELP stackd_request_duration_ms Request latency in milliseconds, by route.\n# TYPE stackd_request_duration_ms histogram\n")
	for _, r := range routes {
		h := snap.Endpoints[r].Latency
		var cum, count int64
		for i, ub := range h.BucketsMs {
			cum += h.Counts[i]
			fmt.Fprintf(w, "stackd_request_duration_ms_bucket{route=%q,le=\"%d\"} %d\n", r, ub, cum)
		}
		count = cum + h.Counts[len(h.BucketsMs)]
		fmt.Fprintf(w, "stackd_request_duration_ms_bucket{route=%q,le=\"+Inf\"} %d\n", r, count)
		fmt.Fprintf(w, "stackd_request_duration_ms_sum{route=%q} %d\n", r, h.TotalMs)
		fmt.Fprintf(w, "stackd_request_duration_ms_count{route=%q} %d\n", r, count)
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	// The solver counters are core.Stats fields; each carries its
	// metric name and help text in prom/help tags, in exposition order.
	st := reflect.ValueOf(snap.Solver)
	for i := 0; i < st.NumField(); i++ {
		f := st.Type().Field(i)
		counter(f.Tag.Get("prom"), f.Tag.Get("help"), st.Field(i).Int())
	}

	if c := snap.ResultCache; c != nil {
		counter("stackd_result_cache_hits_total", "Result-cache lookups that hit.", c.Hits)
		counter("stackd_result_cache_misses_total", "Result-cache lookups that missed.", c.Misses)
		counter("stackd_result_cache_puts_total", "Entries stored into the result cache.", c.Puts)
		counter("stackd_result_cache_evictions_total", "Entries evicted from the result cache.", c.Evictions)
		counter("stackd_result_cache_errors_total", "Corrupt or unreadable cache entries quarantined.", c.Errors)
		gauge("stackd_result_cache_entries", "Entries resident in the result cache.", c.Entries)
		gauge("stackd_result_cache_bytes", "Bytes resident in the result cache.", c.Bytes)
	}
}
