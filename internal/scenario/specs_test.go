package scenario

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// The seed registry. Scenario scripts speak the study interface's keyword
// language (see internal/nlq); expectations encode the paper's claims the
// scattered unit tests used to prove one-off. Dataset specs are shared
// wherever possible so runs amortize generation through the cache.

// flights5k is the default scenario dataset.
var flights5k = DatasetSpec{Name: "flights", Rows: 5000, Seed: 1}

// salariesStd is the salaries scenario dataset (size is fixed by family).
var salariesStd = DatasetSpec{Name: "salaries", Seed: 2}

func init() {
	// --- nominal: the examples/ workloads as conformance specs ---------

	Register(&Spec{
		Name:    "nominal/flights-region-season",
		Desc:    "The paper's flagship query speaks a grammar-valid answer whose refinement tendencies match the exact result (examples/quickstart, examples/flights).",
		Class:   ClassNominal,
		Dataset: flights5k,
		Script: []Step{{
			Input: "how does cancellation depend on region and season",
			Expect: Expect{
				Action: "query", Speech: true, MaxChars: 600,
				MinRefinements: 1, Tendency: true,
			},
		}},
	})

	Register(&Spec{
		Name:    "nominal/salaries-exploration",
		Desc:    "Drill-down and roll-up over the college-salary dataset keep every answer in-grammar (examples/exploration).",
		Class:   ClassNominal,
		Dataset: salariesStd,
		Script: []Step{
			{Input: "drill down", Expect: Expect{Action: "drill down", Speech: true, Tendency: true}},
			{Input: "break down by rough start salary", Expect: Expect{Action: "query", Speech: true}},
			{Input: "roll up the location", Expect: Expect{Action: "roll up", Speech: true}},
		},
	})

	Register(&Spec{
		Name:    "nominal/prior-baseline",
		Desc:    "The prior enumeration baseline answers the flagship query with well-formed sentences (the study's second arm).",
		Class:   ClassNominal,
		Dataset: flights5k,
		Script: []Step{{
			Input:  "how does cancellation depend on region and season",
			Method: "prior",
			Expect: Expect{Action: "query", Speech: true},
		}},
	})

	Register(&Spec{
		Name:    "nominal/navigation-and-help",
		Desc:    "Navigation commands behave: undo with no history is a clean rejection, help lists the vocabulary, reset restores the initial breakdown.",
		Class:   ClassNominal,
		Dataset: flights5k,
		Script: []Step{
			{Input: "back", Expect: Expect{ParseError: true}},
			{Input: "help", Expect: Expect{Action: "help"}},
			{Input: "break down by season", Expect: Expect{Action: "query", Speech: true}},
			{Input: "reset", Expect: Expect{Action: "reset", Speech: true}},
		},
	})

	// --- uncertainty: the Section 4.4 confidence extension -------------

	Register(&Spec{
		Name:    "uncertainty/bounds-sane",
		Desc:    "Bounds mode speaks at least one confidence interval and every bound sentence is well-formed.",
		Class:   ClassUncertainty,
		Dataset: flights5k,
		Planner: PlannerSpec{Uncertainty: core.UncertaintyBounds},
		Script: []Step{{
			Input:  "how does cancellation depend on region and season",
			Expect: Expect{Action: "query", Speech: true, BoundsSane: true},
		}},
	})

	Register(&Spec{
		Name:    "uncertainty/warn-when-starved",
		Desc:    "Warn mode raises the low-confidence warning when sampling is starved against a strict width threshold.",
		Class:   ClassUncertainty,
		Dataset: flights5k,
		Planner: PlannerSpec{
			Uncertainty: core.UncertaintyWarn,
			InitialRows: 8, RowsPerRound: 1, MinRounds: 1,
			MaxRoundsPerSentence: 2, WarnRelativeWidth: 0.0001,
		},
		Script: []Step{{
			Input:  "how does cancellation depend on region and season",
			Expect: Expect{Action: "query", Speech: true, Warning: true},
		}},
	})

	// --- asr: speech-recognition noise on the input path ----------------

	Register(&Spec{
		Name:    "asr/edit-noise-member-recovers",
		Desc:    "A member mention with phoneme-level typos still resolves through fuzzy matching and vocalizes (Speech-to-SQL's graceful-recovery workload).",
		Class:   ClassASR,
		Dataset: flights5k,
		Script: []Step{
			{Input: "how does cancellation depend on region and season", Expect: Expect{Action: "query"}},
			{
				Input:   "only flights in december",
				Corrupt: &CorruptSpec{Seed: 11},
				Expect:  Expect{Action: "query", Speech: true},
			},
		},
	})

	Register(&Spec{
		Name:    "asr/homophone-followup",
		Desc:    "A homophone-mangled follow-up (\"an four winner\") still narrows the established breakdown to winter.",
		Class:   ClassASR,
		Dataset: flights5k,
		Script: []Step{
			{Input: "how does cancellation depend on region and season", Expect: Expect{Action: "query"}},
			{
				Input:   "and for winter",
				Corrupt: &CorruptSpec{Seed: 3, Homophones: true},
				Expect:  Expect{Action: "query", Speech: true},
			},
		},
	})

	Register(&Spec{
		Name:    "asr/garbled-rejected",
		Desc:    "Input beyond fuzzy repair is rejected cleanly (HTTP 422 live), never answered with a made-up query.",
		Class:   ClassASR,
		Dataset: flights5k,
		Script: []Step{
			{Input: "xyzzy plugh qwrt", Expect: Expect{ParseError: true}},
			{Input: "break down by season", Expect: Expect{Action: "query", Speech: true}},
		},
	})

	// --- multiturn: anaphora over session state -------------------------

	Register(&Spec{
		Name:    "multiturn/anaphora-winter",
		Desc:    "\"And for winter?\" keeps the established region-season breakdown and narrows the scope; a second season replaces the first.",
		Class:   ClassMultiTurn,
		Dataset: flights5k,
		Script: []Step{
			{Input: "how does cancellation depend on region and season", Expect: Expect{Action: "query", Speech: true, Tendency: true}},
			{Input: "and for winter", Expect: Expect{Action: "query", Speech: true}},
			{Input: "and for summer", Expect: Expect{Action: "query", Speech: true}},
		},
	})

	Register(&Spec{
		Name:    "multiturn/same-but-carrier",
		Desc:    "\"Same but by carrier\" adds the airline dimension through the spoken-synonym table; \"drop the carrier\" removes it again.",
		Class:   ClassMultiTurn,
		Dataset: flights5k,
		Script: []Step{
			{Input: "break down by region", Expect: Expect{Action: "query", Speech: true}},
			{Input: "same but by carrier", Expect: Expect{Action: "query", Speech: true}},
			{Input: "drop the carrier", Expect: Expect{Action: "remove", Speech: true}},
		},
	})

	Register(&Spec{
		Name:    "multiturn/undo-reset",
		Desc:    "The undo stack and reset restore earlier exploration states mid-conversation.",
		Class:   ClassMultiTurn,
		Dataset: flights5k,
		Script: []Step{
			{Input: "break down by season", Expect: Expect{Action: "query"}},
			{Input: "drill down", Expect: Expect{Action: "drill down", Speech: true}},
			{Input: "back", Expect: Expect{Action: "back", Speech: true}},
			{Input: "reset", Expect: Expect{Action: "reset", Speech: true}},
		},
	})

	Register(&Spec{
		Name:    "multiturn/aggregate-switch",
		Desc:    "\"How many flights\" switches the aggregate mid-exploration without dropping the breakdown, and the count answer stays in-grammar.",
		Class:   ClassMultiTurn,
		Dataset: flights5k,
		Script: []Step{
			{Input: "break down by region", Expect: Expect{Action: "query", Speech: true}},
			{Input: "how many flights", Expect: Expect{Action: "function", Speech: true}},
			{Input: "average again", Expect: Expect{Action: "function", Speech: true}},
		},
	})

	// --- fault: storage faults on the scan path ------------------------

	Register(&Spec{
		Name:    "fault/failing-scan-valid-speech",
		Desc:    "A backend that dies mid-stream on every scan still yields a grammar-valid answer — faults degrade, never error.",
		Class:   ClassFault,
		Dataset: flights5k,
		Faults:  faults.InjectorOptions{FailEvery: 1, FailAfter: 128},
		Script: []Step{{
			Input:  "how does cancellation depend on region and season",
			Expect: Expect{Action: "query", Speech: true},
		}},
	})

	Register(&Spec{
		Name:        "fault/slow-scan-deadline-degrades",
		Desc:        "A 1 ms/row scan against a 40 ms deadline must mark the answer degraded while keeping it in-grammar.",
		Class:       ClassFault,
		Dataset:     flights5k,
		Faults:      faults.InjectorOptions{SlowEvery: 1, SlowDelay: time.Millisecond},
		StepTimeout: 40 * time.Millisecond,
		Script: []Step{{
			Input:  "how does cancellation depend on region and season",
			Expect: Expect{Action: "query", Speech: true, Degraded: pbool(true)},
		}},
	})

	Register(&Spec{
		Name:    "fault/stalling-scan-recovers",
		Desc:    "A scan that hangs and heals (storage hiccup) delays the answer but never wedges or breaks the grammar.",
		Class:   ClassFault,
		Dataset: flights5k,
		Faults:  faults.InjectorOptions{StallEvery: 1, StallAfter: 32, StallRelease: 100 * time.Millisecond},
		Script: []Step{{
			Input:  "how does cancellation depend on region and season",
			Expect: Expect{Action: "query", Speech: true},
		}},
	})

	// --- cache: the semantic answer cache's serving contract -------------

	Register(&Spec{
		Name:    "cache/semantic-hit",
		Desc:    "An equivalent rephrase of an answered query — dimensions reordered, \"carrier\" for \"airline\" — replays the finished speech from the semantic cache instead of re-running the planner.",
		Class:   ClassCache,
		Dataset: flights5k,
		Live:    LiveSpec{SemCacheEntries: 64},
		Script: []Step{
			{Input: "how does cancellation depend on region and carrier", Expect: Expect{Action: "query", Speech: true, ServedBy: "this"}},
			{Input: "how does cancellation depend on airline and region", Expect: Expect{Action: "query", Speech: true, ServedBy: "cache"}},
			{Input: "how does cancellation depend on carrier and region", Expect: Expect{Action: "query", Speech: true, ServedBy: "cache"}},
		},
	})

	Register(&Spec{
		Name:    "cache/epoch-invalidation",
		Desc:    "An ingest batch bumps the dataset's cache epoch: the question that replayed from the cache a step earlier must be recomputed against the new data, never served stale.",
		Class:   ClassCache,
		Dataset: flights5k,
		Live:    LiveSpec{SemCacheEntries: 128},
		Script: []Step{
			{Input: "how does cancellation depend on region and season", Expect: Expect{Action: "query", Speech: true, ServedBy: "this"}},
			{Input: "how does cancellation depend on season and region", Expect: Expect{Action: "query", Speech: true, ServedBy: "cache"}},
			{Ingest: &IngestSpec{Rows: 400, Seed: 99}},
			{Input: "how does cancellation depend on season and region", Expect: Expect{Action: "query", Speech: true, ServedBy: "this", MinEpoch: 1}},
		},
	})

	Register(&Spec{
		Name:        "cache/degraded-never-cached",
		Desc:        "Deadline-degraded answers are never stored: equivalent rephrases after a degraded answer run the vocalizer again (and degrade again) instead of replaying the cut speech.",
		Class:       ClassCache,
		Dataset:     flights5k,
		Faults:      faults.InjectorOptions{SlowEvery: 1, SlowDelay: time.Millisecond},
		StepTimeout: 40 * time.Millisecond,
		Script: []Step{
			{Input: "how does cancellation depend on region and season", Expect: Expect{Action: "query", Speech: true, Degraded: pbool(true), ServedBy: "this"}},
			{Input: "how does cancellation depend on season and region", Expect: Expect{Action: "query", Speech: true, Degraded: pbool(true), ServedBy: "this"}},
			{Input: "how does cancellation depend on region and season", Expect: Expect{Action: "query", Speech: true, Degraded: pbool(true), ServedBy: "this"}},
		},
	})

	// --- stream: appends mid-conversation and the freshness contract ----

	Register(&Spec{
		Name:    "stream/windowed-last-hour",
		Desc:    "Time-windowed phrasings parse, vocalize in-grammar, and widen back out with \"all time\" — the query scope layer for freshly ingested rows.",
		Class:   ClassStream,
		Dataset: flights5k,
		Script: []Step{
			{Input: "how does cancellation depend on region in the last hour", Expect: Expect{Action: "query", Speech: true}},
			{Input: "in the last 30 minutes", Expect: Expect{Action: "window", Speech: true}},
			{Input: "all time", Expect: Expect{Action: "window", Speech: true}},
		},
	})

	Register(&Spec{
		Name:    "stream/ingest-invalidates-cache",
		Desc:    "A streaming append between two identical questions makes the cached answer unreachable: the post-ingest ask recomputes at the bumped epoch (never replays stale), and the recomputed answer caches again at the new epoch.",
		Class:   ClassStream,
		Dataset: flights5k,
		Live:    LiveSpec{SemCacheEntries: 64},
		Script: []Step{
			{Input: "how does cancellation depend on region and season", Expect: Expect{Action: "query", Speech: true, ServedBy: "this"}},
			{Input: "how does cancellation depend on season and region", Expect: Expect{Action: "query", Speech: true, ServedBy: "cache"}},
			{Ingest: &IngestSpec{Rows: 50, Seed: 77}},
			{Input: "how does cancellation depend on season and region", Expect: Expect{Action: "query", Speech: true, ServedBy: "this", MinEpoch: 1}},
			{Input: "how does cancellation depend on region and season", Expect: Expect{Action: "query", Speech: true, ServedBy: "cache", MinEpoch: 1}},
		},
	})

	Register(&Spec{
		Name:    "stream/ingest-under-faults",
		Desc:    "Appends keep landing while a stalling backend delays every scan: the post-ingest answer is computed at the new epoch and stays in-grammar — streaming degrades with the storage, never errors.",
		Class:   ClassStream,
		Dataset: flights5k,
		Faults:  faults.InjectorOptions{StallEvery: 1, StallAfter: 32, StallRelease: 100 * time.Millisecond},
		Live:    LiveSpec{SemCacheEntries: 64},
		Script: []Step{
			{Input: "how does cancellation depend on region", Expect: Expect{Action: "query", Speech: true}},
			{Ingest: &IngestSpec{Rows: 40, Seed: 41}},
			{Input: "break down by season", Expect: Expect{Action: "query", Speech: true, MinEpoch: 1}},
		},
	})

	// --- overload: concurrent sessions against tight admission ----------

	Register(&Spec{
		Name:     "overload/parallel-sessions-shed-clean",
		Desc:     "Eight concurrent sessions against two vocalization slots: answers stay in-grammar, refusals are clean 503s with Retry-After, and nothing 500s (in-process, the same script races the planner under -race).",
		Class:    ClassOverload,
		Dataset:  flights5k,
		Parallel: 8,
		Live:     LiveSpec{MaxConcurrent: 2, AllowShed: true},
		Script: []Step{
			{Input: "break down by season", Expect: Expect{Action: "query", Speech: true}},
			{Input: "drill down", Expect: Expect{Action: "drill down", Speech: true}},
			{Input: "break down by airline", Expect: Expect{Action: "query", Speech: true}},
		},
	})
}
