package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/userstudy"
)

// PrintFigure3 writes Figure 3's two panels as text tables.
func PrintFigure3(w io.Writer, rows []Figure3Row) {
	fmt.Fprintln(w, "Figure 3 — latency and speech quality per query and approach")
	fmt.Fprintf(w, "%-8s %-10s %12s %9s %10s %6s %8s\n",
		"query", "approach", "latency", "quality", "rows", "chars", "scored")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-10s %12s %9.3f %10d %6d %8d\n",
			r.Query, r.Approach, r.Latency.Round(time.Microsecond), r.Quality, r.RowsRead, r.SpeechLen, r.SpeechesScored)
	}
	sum := Summarize(rows)
	fmt.Fprintln(w, "means:")
	for _, a := range []string{"optimal", "holistic", "unmerged"} {
		fmt.Fprintf(w, "  %-10s latency %12s quality %6.3f\n",
			a, sum.MeanLatency[a].Round(time.Microsecond), sum.MeanQuality[a])
	}
}

// PrintTable2 writes the pilot-study aggregation next to the paper's.
func PrintTable2(w io.Writer, res userstudy.PilotResult) {
	fmt.Fprintln(w, "Table 2 — pilot study on implicit assumptions (simulated, 20 workers)")
	fmt.Fprintf(w, "%-15s %12s %14s %20s\n", "aspect", "#consistent", "#inconsistent", "paper (cons/incons)")
	for _, aspect := range userstudy.AspectOrder {
		cnt := res.PerAspect[aspect]
		paper := userstudy.PaperTable2[aspect]
		label := aspect
		if aspect == "Variance" {
			label = "Normal(σ≤µ)"
		}
		fmt.Fprintf(w, "%-15s %12d %14d %15d/%d\n",
			label, cnt.Consistent, cnt.Inconsistent, paper.Consistent, paper.Inconsistent)
	}
}

// PrintTable10 writes the per-question pilot replies.
func PrintTable10(w io.Writer, res userstudy.PilotResult) {
	fmt.Fprintln(w, "Table 10 — per-question pilot replies (simulated / paper)")
	for i, q := range userstudy.PilotQuestions {
		fmt.Fprintf(w, "%2d %-13s replies %2d/%2d/%2d  paper %2d/%2d/%2d\n",
			i+1, q.Aspect,
			res.Replies[i][0], res.Replies[i][1], res.Replies[i][2],
			q.PaperReplies[0], q.PaperReplies[1], q.PaperReplies[2])
	}
}

// PrintSpeeches writes a Table 5/13-style speech comparison.
func PrintSpeeches(w io.Writer, title string, rows []SpeechComparison) {
	fmt.Fprintln(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s quality %5.3f\n  %s\n", r.Approach, r.Quality, r.Speech)
	}
}

// PrintTable6And14 writes the estimation-study results.
func PrintTable6And14(w io.Writer, studies []EstimationStudy) {
	fmt.Fprintln(w, "Table 6 — absolute error (%) per user; Table 14 — correct tendencies (%)")
	fmt.Fprintf(w, "%-10s %10s %12s  %s\n", "approach", "medianErr", "tendencies", "per-user errors")
	for _, st := range studies {
		fmt.Fprintf(w, "%-10s %10.2f %11.0f%%  ", st.Approach, st.MedianAbsError, st.TendencyAccuracy*100)
		for _, u := range st.Users {
			marker := ""
			if u.Misread {
				marker = "*"
			}
			fmt.Fprintf(w, "%.2g%s ", u.AbsError*100, marker)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(* = simulated 'increase TO x percent' misreading, cf. users 1 and 8)")
}

// PrintTable7 writes the extracted facts.
func PrintTable7(w io.Writer, facts []userstudy.Fact) {
	fmt.Fprintln(w, "Table 7 — example facts extracted from the flights data")
	for _, f := range facts {
		fmt.Fprintf(w, "%-25s %s\n", f.Dimensions, f.Text)
	}
}

// PrintTable8And9 writes preferences and speech lengths per dataset.
func PrintTable8And9(w io.Writer, studies []ExploratoryStudy) {
	fmt.Fprintln(w, "Table 8 — vocalization preferences; Table 9 — speech lengths (chars)")
	fmt.Fprintf(w, "%-8s %7s %7s %8s %6s %7s | %8s %8s %9s %9s\n",
		"data", "prior++", "prior+", "neutral", "this+", "this++",
		"thisAvg", "thisMax", "priorAvg", "priorMax")
	for _, st := range studies {
		p := st.Result.Prefs
		l := st.Result.Lengths
		fmt.Fprintf(w, "%-8s %7d %7d %8d %6d %7d | %8d %8d %9d %9d\n",
			st.Dataset, p[0], p[1], p[2], p[3], p[4],
			l.ThisAvg, l.ThisMax, l.PriorAvg, l.PriorMax)
	}
}

// PrintTable11 writes the dataset statistics.
func PrintTable11(w io.Writer, stats []DatasetStats) {
	fmt.Fprintln(w, "Table 11 — benchmark data")
	fmt.Fprintf(w, "%-22s %-45s %9s %10s\n", "data set", "dimensions", "#rows", "size")
	for _, s := range stats {
		fmt.Fprintf(w, "%-22s %-45s %9d %9.1fMB\n", s.Name, s.Dimensions, s.Rows, float64(s.Bytes)/1e6)
	}
}

// PrintTable12 writes the full region-by-season result.
func PrintTable12(w io.Writer, rows []ResultField) {
	fmt.Fprintln(w, "Table 12 — full result, region x season (sorted by cancellation probability)")
	fmt.Fprintf(w, "%-32s %-8s %12s\n", "region", "season", "cancellation")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %-8s %12.5f\n", r.Region, r.Season, r.Cancellation)
	}
}

// PrintAblation writes one ablation sweep.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s quality %6.3f\n", r.Variant, r.Quality)
	}
}
