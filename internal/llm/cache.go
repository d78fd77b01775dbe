package llm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// CacheKey hashes the full request identity: model, system prompt, user
// prompt, temperature, and max-tokens. Every field that can change the
// completion participates, so configs differing only in, say, the system
// prompt can never serve each other stale hits. The key is stable across
// processes; persistent caches (runstore.Cache) index their on-disk
// entries by it.
func CacheKey(req Request) string {
	h := sha256.New()
	h.Write([]byte(req.Model))
	h.Write([]byte{0})
	h.Write([]byte(req.System))
	h.Write([]byte{0})
	h.Write([]byte(req.Prompt))
	h.Write([]byte{0})
	// Temperature participates: different sampling regimes are different
	// distributions. Hash the IEEE-754 bits so any distinct value gets a
	// distinct key without precision cutoffs.
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(req.Temperature))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(req.MaxTokens))
	binary.LittleEndian.PutUint64(buf[16:], uint64(req.Tier))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}
