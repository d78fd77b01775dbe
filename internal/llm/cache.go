package llm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// CacheKey hashes the request identity: model, prompt and tier, framed
// as they were when a request also carried a system prompt, a
// temperature and a completion cap — an empty system prompt, the bits of
// Temperature and a zero cap — so keys written then still match. The key
// is stable across processes; persistent caches (runstore.Cache) index
// their on-disk entries by it.
func CacheKey(req Request) string {
	h := sha256.New()
	h.Write([]byte(req.Model))
	h.Write([]byte{0, 0}) // an empty system prompt between two separators
	h.Write([]byte(req.Prompt))
	h.Write([]byte{0})
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(Temperature))
	// buf[8:16] stays zero: no completion cap.
	binary.LittleEndian.PutUint64(buf[16:], uint64(req.Tier))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}
