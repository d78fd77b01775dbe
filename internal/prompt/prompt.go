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

// ParseEntity inverts writeEntity. Attribute names must not contain ':'
// or ';'; values may contain anything except the exact " ; " separator.
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

// Fixed text of a rendered prompt.
const (
	examplesHead  = "\nExamples:\n"
	questionsHead = "\nQuestions:\n"
	exampleHead   = "Example "
	questionHead  = "Question "
	entityA       = "Entity A: "
	entityB       = "Entity B: "
	answerYes     = "Answer: Yes, they refer to the same entity.\n"
	answerNo      = "Answer: No, they refer to different entities.\n"
	singleReply   = "\nAnswer with a single line: \"Question 1: Yes\" or \"Question 1: No\".\n"
	batchReply    = "\nFor each of Question 1 through Question "
	batchReplyEnd = ", answer on its own line in the form \"Question i: Yes\" or \"Question i: No\".\n"
)

// Build renders a batch prompt from a task description, demonstrations,
// and questions, following the paper's Figure 1(b) layout, and closes it
// with the instruction to answer "Question i: Yes" or "Question i: No".
// Passing a single question yields standard prompting (Figure 1(a)).
// The text is rendered into one buffer sized up front: one allocation
// per prompt.
func Build(desc string, demos []Demo, questions []entity.Pair) Prompt {
	size := len(desc) + 1 + len(questionsHead)
	if len(demos) > 0 {
		size += len(examplesHead)
	}
	for i, d := range demos {
		size += pairLen(len(exampleHead), i+1, d.Pair) + len(demoAnswer(d.Label))
	}
	for i, q := range questions {
		size += pairLen(len(questionHead), i+1, q)
	}
	if len(questions) == 1 {
		size += len(singleReply)
	} else {
		size += len(batchReply) + decimalLen(len(questions)) + len(batchReplyEnd)
	}

	var b strings.Builder
	b.Grow(size)
	b.WriteString(desc)
	b.WriteByte('\n')
	if len(demos) > 0 {
		b.WriteString(examplesHead)
		for i, d := range demos {
			writePair(&b, exampleHead, i+1, d.Pair)
			b.WriteString(demoAnswer(d.Label))
		}
	}
	b.WriteString(questionsHead)
	for i, q := range questions {
		writePair(&b, questionHead, i+1, q)
	}
	if len(questions) == 1 {
		b.WriteString(singleReply)
	} else {
		b.WriteString(batchReply)
		writeInt(&b, len(questions))
		b.WriteString(batchReplyEnd)
	}
	return Prompt{Text: b.String()}
}

// demoAnswer is the answer line of a demonstration labeled l.
func demoAnswer(l entity.Label) string {
	if l == entity.Match {
		return answerYes
	}
	return answerNo
}

// writePair writes one numbered pair: "<head><i>:", then its two
// entity lines.
func writePair(b *strings.Builder, head string, i int, p entity.Pair) {
	b.WriteString(head)
	writeInt(b, i)
	b.WriteString(":\n")
	b.WriteString(entityA)
	writeEntity(b, p.A)
	b.WriteByte('\n')
	b.WriteString(entityB)
	writeEntity(b, p.B)
	b.WriteByte('\n')
}

// pairLen is the length writePair writes for p under a head of headLen
// bytes and number i.
func pairLen(headLen, i int, p entity.Pair) int {
	return headLen + decimalLen(i) + 2 + len(entityA) + entityLen(p.A) + 1 + len(entityB) + entityLen(p.B) + 1
}

// writeEntity writes one record as "attr1: val1 ; attr2: val2". Newlines
// in values are written as spaces so one entity always occupies one line.
func writeEntity(b *strings.Builder, r entity.Record) {
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteString(attrSep)
		}
		b.WriteString(a)
		b.WriteString(": ")
		v := r.Values[i]
		for {
			j := strings.IndexByte(v, '\n')
			if j < 0 {
				break
			}
			b.WriteString(v[:j])
			b.WriteByte(' ')
			v = v[j+1:]
		}
		b.WriteString(v)
	}
}

// entityLen is the length writeEntity writes for r.
func entityLen(r entity.Record) int {
	n := 0
	for i, a := range r.Attrs {
		if i > 0 {
			n += len(attrSep)
		}
		n += len(a) + 2 + len(r.Values[i])
	}
	return n
}

// writeInt writes the decimal form of i.
func writeInt(b *strings.Builder, i int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(i), 10))
}

// decimalLen is the length of the decimal form of a non-negative i.
func decimalLen(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
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
