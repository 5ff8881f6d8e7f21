package main

// metricDef names one metric of the benchmark. BENCHMARK.json repeats the
// names and units and adds direction and regression bound; bench_test.go
// pins that the two agree.
type metricDef struct {
	unit string
	// endToEnd metrics are what a user of the system sees and are
	// printed by an untraced run; the rest are per-layer metrics, printed
	// by a traced run and never gated.
	endToEnd bool
	// advisory is the bound ISSUE 11 set for a metric that did not hold
	// it on unchanged code and so is not gated: -agree still judges the
	// metric by it. 0 for none.
	advisory float64
}

var catalog = map[string]metricDef{
	// End to end.
	"setup_s":             {unit: "s", endToEnd: true},
	"quality":             {unit: "ratio", endToEnd: true},
	"alloc_mb_per_answer": {unit: "MiB", endToEnd: true},

	// Counted by the generator or published by the server and the Go
	// runtime around the HTTP phase.
	"fail_share":              {unit: "ratio"},
	"heap_peak_mb":            {unit: "MiB", advisory: 0.15},
	"answers_per_s":           {unit: "1/s", advisory: 0.10},
	"answer_p50_ms":           {unit: "ms", advisory: 0.10},
	"answer_p90_ms":           {unit: "ms", advisory: 0.20},
	"answer_p99_ms":           {unit: "ms"},
	"answer_hit_p50_ms":       {unit: "ms"},
	"answer_miss_p50_ms":      {unit: "ms"},
	"ingest_p50_ms":           {unit: "ms", advisory: 0.15},
	"ingest_p90_ms":           {unit: "ms", advisory: 0.25},
	"gen.lateness_ms":         {unit: "ms"},
	"gen.client_us_per_op":    {unit: "us"},
	"semcache.hit_ratio":      {unit: "ratio"},
	"semcache.stores":         {unit: "count"},
	"semcache.view_builds":    {unit: "count"},
	"semcache.view_hit_ratio": {unit: "ratio"},
	"admission.queued":        {unit: "count"},
	"admission.shed":          {unit: "count"},
	"web.vocalize_p50_ms":     {unit: "ms"},
	"web.vocalize_p99_ms":     {unit: "ms"},
	"web.sessions_logged":     {unit: "count"},
	"web.stale_answers":       {unit: "count"},
	"go.mutex_wait_ms":        {unit: "ms"},
	"go.gc_pause_ms":          {unit: "ms"},
	"go.allocs_per_answer":    {unit: "count"},
	"go.cpu_s_per_answer":     {unit: "s"},

	// Traced replay: per-answer self time of each layer, and the checks
	// that the replay still follows internal/core.
	"trace.nlq_self_ms":       {unit: "ms"},
	"trace.semcache_self_ms":  {unit: "ms"},
	"trace.admission_self_ms": {unit: "ms"},
	"trace.olap_self_ms":      {unit: "ms"},
	"trace.speech_self_ms":    {unit: "ms"},
	"trace.sampling_self_ms":  {unit: "ms"},
	"trace.belief_self_ms":    {unit: "ms"},
	"trace.mcts_self_ms":      {unit: "ms"},
	"trace.encode_self_ms":    {unit: "ms"},
	"trace.request_ms":        {unit: "ms"},
	"trace.overhead_ratio":    {unit: "ratio"},
	"core.trace_coverage":     {unit: "ratio"},
	"core.vocalize_ms":        {unit: "ms"},
	"core.rounds_per_answer":  {unit: "count"},
	"core.rows_per_answer":    {unit: "count"},
	"core.samples_per_answer": {unit: "count"},
	"core.rounds_per_s":       {unit: "1/s"},
	"core.optimal_ms":         {unit: "ms"},
	"core.quality_ratio":      {unit: "ratio"},
	"mcts.build_ms":           {unit: "ms"},
	"mcts.build_nodes":        {unit: "count"},
	"mcts.nodes_after":        {unit: "count"},
	"web.handler_us":          {unit: "us"},
	"web.transport_us":        {unit: "us"},
	"web.ingest_handler_us":   {unit: "us"},

	// Layer probes: one public function each, outside any request.
	"datagen.flights_mrows_per_s": {unit: "Mrows/s"},
	"table.appendable_copy_ms":    {unit: "ms"},
	"table.scan_mrows_per_s":      {unit: "Mrows/s"},
	"table.append_us_per_batch":   {unit: "us"},
	"table.snapshot_us":           {unit: "us"},
	"olap.newspace_us":            {unit: "us"},
	"olap.classify_mrows_per_s":   {unit: "Mrows/s"},
	"olap.evaluate_ms":            {unit: "ms"},
	"sampling.read_mrows_per_s":   {unit: "Mrows/s"},
	"sampling.insert_mrows_per_s": {unit: "Mrows/s"},
	"sampling.estimate_ns":        {unit: "ns"},
	"sampling.absorb_append_us":   {unit: "us"},
	"sampling.view_build_ms":      {unit: "ms"},
	"speech.candidates_us":        {unit: "us"},
	"speech.conforms_us":          {unit: "us"},
	"mcts.round_us":               {unit: "us"},
	"mcts.allocs_per_round":       {unit: "count"},
	"belief.reward_ns":            {unit: "ns"},
	"belief.kernel_reward_ns":     {unit: "ns"},
	"belief.score_ns":             {unit: "ns"},
	"nlq.parse_us":                {unit: "us"},
	"nlq.clone_us":                {unit: "us"},
	"nlq.newsession_us":           {unit: "us"},
	"semcache.key_us":             {unit: "us"},
	"semcache.hit_us":             {unit: "us"},
	"semcache.purge_us":           {unit: "us"},
	"admission.acquire_ns":        {unit: "ns"},
	"encode.response_us":          {unit: "us"},
}
