package web

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/admission"
)

// statusClientClosedRequest is nginx's 499: the client went away before
// the answer was ready. It keeps disconnects out of the 5xx error budget.
const statusClientClosedRequest = 499

// maxTenantCounters bounds the per-tenant stats map; traffic from tenants
// beyond it is folded into one overflow bucket so an open endpoint cannot
// grow server memory without bound.
const maxTenantCounters = 1024

// overflowTenant collects counters once maxTenantCounters is reached.
const overflowTenant = "(other)"

// tenantOf identifies the billing tenant for a request: the X-Tenant
// header when present (a fronting proxy's authenticated principal), else
// the session ID.
func tenantOf(r *http.Request, session string) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return session
}

// writeShed refuses a query with 503 and admission's Retry-After hint, in
// whole seconds.
func (s *Server) writeShed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int(admission.RetryAfter/time.Second)))
	writeError(w, http.StatusServiceUnavailable, err)
}

// StartDrain stops admitting queries: new queries are refused with 503,
// while in-flight vocalizations keep their slots and finish. Wire it
// through http.Server.RegisterOnShutdown so graceful shutdown spends its
// grace window on in-flight work only.
func (s *Server) StartDrain() { s.adm.Drain() }

// tenantCounters holds one tenant's query outcomes.
type tenantCounters struct {
	served, hits, coalesced, clientGone, timedOut int64
	shed                                          map[string]int64
}

// servingCounters books every query's outcome per tenant, once, where its
// reply is written.
type servingCounters struct {
	mu      sync.Mutex
	tenants map[string]*tenantCounters
}

// tenant returns name's counters, folding new tenants into the overflow
// bucket at capacity. Caller holds c.mu.
func (c *servingCounters) tenant(name string) *tenantCounters {
	if c.tenants == nil {
		c.tenants = make(map[string]*tenantCounters)
	}
	t, ok := c.tenants[name]
	if !ok {
		if len(c.tenants) >= maxTenantCounters {
			name = overflowTenant
			if t = c.tenants[name]; t != nil {
				return t
			}
		}
		t = &tenantCounters{shed: make(map[string]int64)}
		c.tenants[name] = t
	}
	return t
}

// book records the outcome of one reply to tenant: a semcache.Outcome name
// for a 200 ("miss" when a vocalizer ran, "hit" or "coalesced" when the
// cache answered), "client-gone" for a 499, "timed-out" for a 408, a shed
// reason for a 503.
func (c *servingCounters) book(tenant, outcome string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenant(tenant)
	switch outcome {
	case "miss":
		t.served++
	case "hit":
		t.hits++
	case "coalesced":
		t.coalesced++
	case "client-gone":
		t.clientGone++
	case "timed-out":
		t.timedOut++
	default:
		t.shed[outcome]++
	}
}

// TenantServingStats reports one tenant's query outcomes.
type TenantServingStats struct {
	Tenant string `json:"tenant"`
	// Served counts answered queries.
	Served int64 `json:"served"`
	// Cached counts queries answered from the semantic answer cache
	// (not included in Served: no vocalizer ran).
	Cached int64 `json:"cached,omitempty"`
	// Queued is always 0: admission has no queue. It stays because
	// benchmark/run.go:184 and :190 read it; ROADMAP item 1a(i) removes it.
	Queued int64 `json:"queued,omitempty"`
	// Shed counts refusals by reason ("queue-full" when every slot was
	// busy, "draining").
	Shed map[string]int64 `json:"shed,omitempty"`
	// ClientGone counts requests whose client disconnected first.
	ClientGone int64 `json:"clientGone,omitempty"`
	// TimedOut counts requests whose deadline passed while they waited on
	// an identical query's plan (408).
	TimedOut int64 `json:"timedOut,omitempty"`
}

// ServingStats reports the overload state: live admission gauges and
// per-tenant outcomes.
type ServingStats struct {
	InFlight int `json:"inFlight"`
	// Tenants lists per-tenant outcomes sorted by tenant name.
	Tenants []TenantServingStats `json:"tenants,omitempty"`
	// SemCache reports the semantic answer cache's counters; nil when
	// caching is disabled.
	SemCache *SemCacheStats `json:"semcache,omitempty"`
	// VocalizeLatencyMS reports sliding-window wall-latency quantiles for
	// real vocalizer runs ("p50", "p99"); absent before the first run.
	VocalizeLatencyMS map[string]float64 `json:"vocalizeLatencyMs,omitempty"`
}

// servingStats snapshots the overload state.
func (s *Server) servingStats() ServingStats {
	out := ServingStats{
		InFlight: s.adm.InFlight(),
		SemCache: s.semCacheStats(),
	}
	if p50, p99, _, ok := s.latw.quantiles(); ok {
		out.VocalizeLatencyMS = map[string]float64{
			"p50": ms(p50),
			"p99": ms(p99),
		}
	}
	c := &s.serving
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, t := range c.tenants {
		ts := TenantServingStats{
			Tenant:     name,
			Served:     t.served,
			Cached:     t.hits + t.coalesced,
			ClientGone: t.clientGone,
			TimedOut:   t.timedOut,
		}
		if len(t.shed) > 0 {
			ts.Shed = make(map[string]int64, len(t.shed))
			for reason, n := range t.shed {
				ts.Shed[reason] = n
			}
		}
		out.Tenants = append(out.Tenants, ts)
	}
	sort.Slice(out.Tenants, func(i, j int) bool {
		return out.Tenants[i].Tenant < out.Tenants[j].Tenant
	})
	return out
}
