package prompt

import (
	"encoding/json"
	"fmt"
	"strings"

	"batcher/internal/entity"
)

// AnswerFormat selects how the LLM is asked to reply.
type AnswerFormat int

const (
	// TextAnswers is the paper's free-text "Question i: Yes/No" format.
	TextAnswers AnswerFormat = iota
	// JSONAnswers instructs the model to reply with a JSON document —
	// an extension matching modern structured-output APIs, more robust
	// to parse at the cost of a few extra completion tokens.
	JSONAnswers
)

// jsonInstruction is the reply-format instruction line for JSONAnswers;
// the simulator keys off its prefix to know which format to emit.
const jsonInstruction = `Reply with JSON only, in the form {"answers":[{"question":1,"match":true}, ...]} covering every question.`

// WantsJSON reports whether a prompt asked for JSON answers.
func WantsJSON(text string) bool {
	return strings.Contains(text, `{"answers":[`)
}

// jsonAnswerDoc is the reply schema.
type jsonAnswerDoc struct {
	Answers []jsonAnswer `json:"answers"`
}

type jsonAnswer struct {
	Question int  `json:"question"`
	Match    bool `json:"match"`
}

// FormatAnswersJSON renders labels as a JSON completion.
func FormatAnswersJSON(labels []entity.Label) string {
	doc := jsonAnswerDoc{Answers: make([]jsonAnswer, 0, len(labels))}
	for i, l := range labels {
		doc.Answers = append(doc.Answers, jsonAnswer{Question: i + 1, Match: l == entity.Match})
	}
	out, err := json.Marshal(doc)
	if err != nil {
		// The schema is static; marshal cannot fail on it.
		panic(fmt.Sprintf("prompt: marshal answers: %v", err))
	}
	return string(out)
}

// ParseAnswersAny extracts labels from a completion in either format:
// JSON documents are decoded (tolerating surrounding prose, as models
// sometimes wrap JSON in commentary); anything else falls back to the
// liberal text parser. On either path a question answered both ways is
// Unknown.
func ParseAnswersAny(completion string, n int) []entity.Label {
	if doc, ok := extractJSON(completion); ok {
		out := unanswered(n)
		for _, a := range doc.Answers {
			if a.Question < 1 || a.Question > n {
				continue
			}
			if a.Match {
				answer(out, a.Question-1, entity.Match)
			} else {
				answer(out, a.Question-1, entity.NonMatch)
			}
		}
		return settle(out)
	}
	return ParseAnswers(completion, n)
}

// extractJSON finds and decodes the first JSON object with an "answers"
// array inside the completion.
func extractJSON(s string) (jsonAnswerDoc, bool) {
	start := strings.Index(s, "{")
	for start >= 0 {
		depth := 0
		for i := start; i < len(s); i++ {
			switch s[i] {
			case '{':
				depth++
			case '}':
				depth--
				if depth == 0 {
					var doc jsonAnswerDoc
					if err := json.Unmarshal([]byte(s[start:i+1]), &doc); err == nil && len(doc.Answers) > 0 {
						return doc, true
					}
					i = len(s) // abandon this start
				}
			}
		}
		next := strings.Index(s[start+1:], "{")
		if next < 0 {
			break
		}
		start = start + 1 + next
	}
	return jsonAnswerDoc{}, false
}
