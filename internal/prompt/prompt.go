// Package prompt builds the textual prompts BATCHER sends to an LLM and
// parses completions back into matching labels.
//
// Layout follows Figure 1 of the paper: a task description, a block of
// labeled demonstrations, and one or more questions. Standard prompting is
// the special case of a single question per prompt.
//
// The serialization used inside prompts separates attributes with " ; "
// rather than Eq. (1)'s ", " so that attribute values containing commas
// (e.g. genre lists) survive a round trip: the simulated LLM substrate
// re-parses prompt text to recover the entities it is being asked about,
// exactly as a real model reads them, and a lossy format would corrupt the
// experiment.
package prompt

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"batcher/internal/entity"
)

// DefaultTaskDescription is the instruction header used by all experiments.
const DefaultTaskDescription = "This is an entity resolution task. " +
	"Given pairs of entity records, determine whether the two records of each pair " +
	"refer to the same real-world entity."

// attrSep separates attributes inside a serialized entity line.
const attrSep = " ; "

// Demo is a labeled demonstration pair.
type Demo struct {
	Pair  entity.Pair
	Label entity.Label
}

// Prompt is a fully rendered prompt plus the metadata needed for billing
// and answer alignment.
type Prompt struct {
	// Text is the exact string sent to the LLM.
	Text string
}

// SerializeEntity renders one record for prompt embedding:
// "attr1: val1 ; attr2: val2". Newlines in values are flattened to spaces
// so one entity always occupies one line.
func SerializeEntity(r entity.Record) string {
	var b strings.Builder
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteString(attrSep)
		}
		b.WriteString(a)
		b.WriteString(": ")
		b.WriteString(strings.ReplaceAll(r.Values[i], "\n", " "))
	}
	return b.String()
}

// ParseEntity inverts SerializeEntity. Attribute names must not contain
// ':' or ';'; values may contain anything except the exact " ; " separator.
func ParseEntity(line string) (entity.Record, error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return entity.Record{}, errors.New("prompt: empty entity line")
	}
	parts := strings.Split(line, attrSep)
	var attrs, vals []string
	for _, part := range parts {
		idx := strings.Index(part, ": ")
		if idx < 0 {
			// A trailing "attr:" with empty value serializes as "attr: "
			// and the split may have trimmed the space; accept "attr:".
			if strings.HasSuffix(part, ":") {
				attrs = append(attrs, strings.TrimSuffix(part, ":"))
				vals = append(vals, "")
				continue
			}
			return entity.Record{}, fmt.Errorf("prompt: malformed attribute %q", part)
		}
		attrs = append(attrs, part[:idx])
		vals = append(vals, part[idx+2:])
	}
	return entity.NewRecord("", attrs, vals), nil
}

// Build renders a batch prompt asking for the paper's text answers; it
// is BuildWithFormat with TextAnswers.
func Build(desc string, demos []Demo, questions []entity.Pair) Prompt {
	return BuildWithFormat(desc, demos, questions, TextAnswers)
}

// BuildWithFormat renders a batch prompt from a task description,
// demonstrations, and questions, following the paper's Figure 1(b)
// layout, and closes it with the reply instruction for format. Passing
// a single question yields standard prompting (Figure 1(a)).
func BuildWithFormat(desc string, demos []Demo, questions []entity.Pair, format AnswerFormat) Prompt {
	var b strings.Builder
	b.WriteString(desc)
	b.WriteString("\n")
	if len(demos) > 0 {
		b.WriteString("\nExamples:\n")
		for i, d := range demos {
			fmt.Fprintf(&b, "Example %d:\n", i+1)
			b.WriteString("Entity A: " + SerializeEntity(d.Pair.A) + "\n")
			b.WriteString("Entity B: " + SerializeEntity(d.Pair.B) + "\n")
			if d.Label == entity.Match {
				b.WriteString("Answer: Yes, they refer to the same entity.\n")
			} else {
				b.WriteString("Answer: No, they refer to different entities.\n")
			}
		}
	}
	b.WriteString("\nQuestions:\n")
	for i, q := range questions {
		fmt.Fprintf(&b, "Question %d:\n", i+1)
		b.WriteString("Entity A: " + SerializeEntity(q.A) + "\n")
		b.WriteString("Entity B: " + SerializeEntity(q.B) + "\n")
	}
	switch {
	case format == JSONAnswers:
		b.WriteString("\n" + jsonInstruction + "\n")
	case len(questions) == 1:
		b.WriteString("\nAnswer with a single line: \"Question 1: Yes\" or \"Question 1: No\".\n")
	default:
		fmt.Fprintf(&b, "\nFor each of Question 1 through Question %d, answer on its own line "+
			"in the form \"Question i: Yes\" or \"Question i: No\".\n", len(questions))
	}
	return Prompt{Text: b.String()}
}

// Parsed is the structure recovered from a prompt text.
type Parsed struct {
	Demos     []Demo
	Questions []entity.Pair
}

// Parse recovers the demonstrations and questions embedded in a prompt
// built by Build. The simulated LLM uses it to "read" its input the way a
// real model would; tests use it to assert round-trip fidelity.
func Parse(text string) (*Parsed, error) {
	lines := strings.Split(text, "\n")
	p := &Parsed{}
	// Skip the task description, which may itself mention questions.
	i := 0
	for i < len(lines) && strings.TrimSpace(lines[i]) != "Examples:" && strings.TrimSpace(lines[i]) != "Questions:" {
		i++
	}
	readPair := func(start int) (entity.Pair, int, error) {
		if start+1 >= len(lines) {
			return entity.Pair{}, start, errors.New("prompt: truncated pair")
		}
		la, lb := strings.TrimSpace(lines[start]), strings.TrimSpace(lines[start+1])
		if !strings.HasPrefix(la, "Entity A: ") || !strings.HasPrefix(lb, "Entity B: ") {
			return entity.Pair{}, start, fmt.Errorf("prompt: expected entity lines at %d", start)
		}
		a, err := ParseEntity(strings.TrimPrefix(la, "Entity A: "))
		if err != nil {
			return entity.Pair{}, start, err
		}
		bb, err := ParseEntity(strings.TrimPrefix(lb, "Entity B: "))
		if err != nil {
			return entity.Pair{}, start, err
		}
		return entity.Pair{A: a, B: bb, Truth: entity.Unknown}, start + 2, nil
	}
	for i < len(lines) {
		l := strings.TrimSpace(lines[i])
		switch {
		case strings.HasPrefix(l, "Example "):
			pair, next, err := readPair(i + 1)
			if err != nil {
				return nil, err
			}
			i = next
			if i >= len(lines) {
				return nil, errors.New("prompt: example missing answer line")
			}
			ans := strings.TrimSpace(lines[i])
			label := entity.NonMatch
			if strings.HasPrefix(ans, "Answer: Yes") {
				label = entity.Match
			} else if !strings.HasPrefix(ans, "Answer: No") {
				return nil, fmt.Errorf("prompt: malformed demo answer %q", ans)
			}
			p.Demos = append(p.Demos, Demo{Pair: pair, Label: label})
			i++
		case strings.HasPrefix(l, "Question ") && strings.HasSuffix(l, ":"):
			pair, next, err := readPair(i + 1)
			if err != nil {
				return nil, err
			}
			p.Questions = append(p.Questions, pair)
			i = next
		default:
			i++
		}
	}
	if len(p.Questions) == 0 {
		return nil, errors.New("prompt: no questions found")
	}
	return p, nil
}

// ParseAnswers extracts per-question labels from an LLM completion for a
// prompt with n questions. It is deliberately liberal in what it accepts:
// "Question 3: Yes", "Q3: no", "3. Yes", "A3: No, because..." all parse.
// Questions with no parseable answer are Unknown; callers decide how to
// score them (the paper counts them as non-matches, the conservative
// choice for precision). A question answered more than once keeps its
// label when the answers agree and is Unknown when they do not.
func ParseAnswers(completion string, n int) []entity.Label {
	out := unanswered(n)
	for _, raw := range strings.Split(completion, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		idx, rest, ok := answerIndex(line)
		if !ok || idx < 1 || idx > n {
			continue
		}
		rest = strings.ToLower(strings.TrimLeft(rest, ":.-) \t"))
		switch {
		case strings.HasPrefix(rest, "yes") || strings.HasPrefix(rest, "match") || strings.HasPrefix(rest, "same"):
			answer(out, idx-1, entity.Match)
		case strings.HasPrefix(rest, "no") || strings.HasPrefix(rest, "different") || strings.HasPrefix(rest, "not"):
			answer(out, idx-1, entity.NonMatch)
		}
	}
	return settle(out)
}

// contradicted marks, while a completion is being read, a question it has
// answered both ways. settle reports it as Unknown.
const contradicted entity.Label = -2

// unanswered returns n Unknown labels.
func unanswered(n int) []entity.Label {
	out := make([]entity.Label, n)
	for i := range out {
		out[i] = entity.Unknown
	}
	return out
}

// answer records label l for question i: the first answer sets it, an
// agreeing one changes nothing, and a disagreeing one makes the question
// contradicted for good.
func answer(out []entity.Label, i int, l entity.Label) {
	switch out[i] {
	case entity.Unknown:
		out[i] = l
	case l, contradicted:
	default:
		out[i] = contradicted
	}
}

// settle turns every contradicted question into Unknown and returns out.
func settle(out []entity.Label) []entity.Label {
	for i, l := range out {
		if l == contradicted {
			out[i] = entity.Unknown
		}
	}
	return out
}

// answerIndex extracts a leading question index from an answer line.
func answerIndex(line string) (int, string, bool) {
	l := strings.ToLower(line)
	for _, prefix := range []string{"question ", "question", "answer ", "q", "a"} {
		if strings.HasPrefix(l, prefix) {
			l = l[len(prefix):]
			line = line[len(prefix):]
			break
		}
	}
	j := 0
	for j < len(l) && l[j] >= '0' && l[j] <= '9' {
		j++
	}
	if j == 0 {
		return 0, "", false
	}
	idx, err := strconv.Atoi(l[:j])
	if err != nil {
		return 0, "", false
	}
	return idx, line[j:], true
}
