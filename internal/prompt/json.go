package prompt

import (
	"encoding/json"
	"strings"

	"batcher/internal/entity"
)

// jsonAnswerDoc is the schema of a JSON reply. Prompts ask for the
// paper's text format, but a live model may answer in JSON unasked.
type jsonAnswerDoc struct {
	Answers []jsonAnswer `json:"answers"`
}

type jsonAnswer struct {
	Question int  `json:"question"`
	Match    bool `json:"match"`
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
