package faults

import (
	"math/rand"
	"strings"
)

// ASR noise, a fault injected at the input. Speech recognizers mangle
// utterances in two characteristic ways: whole-word homophone confusions
// ("for" → "four", "winter" → "winner") and phoneme-level misspellings
// (vowel drift, confusable consonants, dropped or doubled letters). A
// Corrupter replays clean utterances through a seeded model of both,
// producing deterministic noisy corpora: the conformance scenarios' noisy
// steps, the seed corpus of nlq's parser fuzz target, and the corpus that
// pins the recovery rate of nlq's fuzzy member matcher.

// CorruptConfig tunes a Corrupter.
type CorruptConfig struct {
	// Seed fixes the corruption stream: equal seeds over equal inputs
	// produce identical corpora.
	Seed int64
	// Rate is the per-word corruption probability in (0,1]; zero selects 1
	// (every eligible word is corrupted).
	Rate float64
	// Homophones enables whole-word homophone substitution before edit
	// noise is considered.
	Homophones bool
	// Protect lists extra words that are never corrupted, in addition to
	// nlq's command keywords (corrupting "drill" would change the scripted
	// intent, not simulate recognizer noise on content words).
	Protect []string
}

// Corrupter injects deterministic ASR-style noise into utterances.
type Corrupter struct {
	rng        *rand.Rand
	rate       float64
	homophones bool
	protect    map[string]bool
}

// minEditLen is the shortest word edit noise applies to. It mirrors nlq's
// fuzzy matcher (maxEditDistance): names under five characters must match
// exactly, so corrupting them tests nothing but guaranteed failure.
const minEditLen = 5

// protectedKeywords is nlq's command vocabulary; corrupting these changes
// what the utterance asks for rather than how it sounds.
var protectedKeywords = []string{
	"drill", "down", "roll", "up", "remove", "drop", "clear", "back",
	"undo", "reset", "help", "count", "total", "sum", "average",
	"typical", "mean", "number", "how", "many", "break", "by", "only",
	"same", "but",
}

// homophoneTable maps words to recognizer-confusable spellings. Entries
// for content words stay within the fuzzy matcher's edit bounds; entries
// for stopwords are harmless to the interpreter either way.
var homophoneTable = map[string]string{
	"for":     "four",
	"to":      "two",
	"in":      "inn",
	"and":     "an",
	"winter":  "winner",
	"weather": "whether",
	"fair":    "fare",
	"plane":   "plain",
	"flight":  "flite",
}

// NewCorrupter returns a deterministic corrupter for cfg.
func NewCorrupter(cfg CorruptConfig) *Corrupter {
	rate := cfg.Rate
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	c := &Corrupter{
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		rate:       rate,
		homophones: cfg.Homophones,
		protect:    make(map[string]bool, len(protectedKeywords)+len(cfg.Protect)),
	}
	for _, w := range protectedKeywords {
		c.protect[w] = true
	}
	for _, w := range cfg.Protect {
		c.protect[strings.ToLower(w)] = true
	}
	return c
}

// Corrupt returns utterance with seeded ASR noise applied word by word.
// Protected keywords pass through verbatim; words shorter than five
// characters are only ever replaced by homophones.
func (c *Corrupter) Corrupt(utterance string) string {
	words := strings.Fields(utterance)
	for i, w := range words {
		words[i] = c.corruptWord(w)
	}
	return strings.Join(words, " ")
}

// corruptWord draws the per-word corruption decision and applies one
// homophone substitution or one-to-two phoneme-level edits.
func (c *Corrupter) corruptWord(w string) string {
	lw := strings.ToLower(w)
	if c.protect[lw] {
		return w
	}
	if c.rng.Float64() >= c.rate {
		return w
	}
	if c.homophones {
		if h, ok := homophoneTable[lw]; ok {
			return h
		}
	}
	if len(lw) < minEditLen {
		return w
	}
	edits := 1
	if len(lw) >= 9 {
		// Long names tolerate (and attract) a second recognition slip.
		edits += c.rng.Intn(2)
	}
	b := []byte(lw)
	for i := 0; i < edits; i++ {
		b = c.edit(b)
	}
	return string(b)
}

// isVowel reports whether ch is an ASCII vowel.
func isVowel(ch byte) bool {
	return ch == 'a' || ch == 'e' || ch == 'i' || ch == 'o' || ch == 'u'
}

// consonantConfusions lists acoustically adjacent consonants.
var consonantConfusions = map[byte][]byte{
	'c': {'k', 's'}, 'k': {'c'}, 's': {'z', 'c'}, 'z': {'s'},
	'b': {'p'}, 'p': {'b'}, 'd': {'t'}, 't': {'d'},
	'g': {'k'}, 'v': {'f'}, 'f': {'v'},
	'm': {'n'}, 'n': {'m'}, 'l': {'r'}, 'r': {'l'},
}

// pickIndex returns a random index of w satisfying ok, or -1.
func pickIndex(rng *rand.Rand, w []byte, ok func(byte) bool) int {
	var idxs []int
	for i, ch := range w {
		if ok(ch) {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[rng.Intn(len(idxs))]
}

// edit applies one phoneme-flavored edit to w: vowel drift, consonant
// confusion, adjacent transposition, or a dropped letter. The drawn op is
// tried first and the rest serve as fallbacks, so every call mutates any
// word long enough to carry an edit.
func (c *Corrupter) edit(w []byte) []byte {
	if len(w) < 2 {
		return w
	}
	op := c.rng.Intn(4)
	for try := 0; try < 4; try++ {
		switch (op + try) % 4 {
		case 0: // vowel drift: "chicago" → "chigago"-style slips
			if i := pickIndex(c.rng, w, isVowel); i >= 0 {
				const vowels = "aeiou"
				repl := vowels[c.rng.Intn(len(vowels))]
				if repl == w[i] {
					repl = vowels[(indexOfVowel(w[i])+1)%len(vowels)]
				}
				w[i] = repl
				return w
			}
		case 1: // consonant confusion
			if i := pickIndex(c.rng, w, func(ch byte) bool { _, ok := consonantConfusions[ch]; return ok }); i >= 0 {
				alts := consonantConfusions[w[i]]
				w[i] = alts[c.rng.Intn(len(alts))]
				return w
			}
		case 2: // adjacent transposition, interior only
			if len(w) >= 4 {
				i := 1 + c.rng.Intn(len(w)-2)
				if w[i] != w[i+1] {
					w[i], w[i+1] = w[i+1], w[i]
					return w
				}
			}
		case 3: // dropped letter, interior only
			if len(w) >= minEditLen {
				i := 1 + c.rng.Intn(len(w)-2)
				return append(w[:i], w[i+1:]...)
			}
		}
	}
	return w
}

// indexOfVowel maps a vowel to its position in "aeiou".
func indexOfVowel(ch byte) int {
	switch ch {
	case 'a':
		return 0
	case 'e':
		return 1
	case 'i':
		return 2
	case 'o':
		return 3
	default:
		return 4
	}
}
