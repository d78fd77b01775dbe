package llm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"unsafe"
)

// CacheKey hashes the request identity: model, prompt and tier, framed
// as they were when a request also carried a system prompt, a
// temperature and a completion cap — an empty system prompt, the bits of
// Temperature and a zero cap — so keys written then still match. The key
// is stable across processes; persistent caches (runstore.Cache) index
// their on-disk entries by it. The key string is CacheKey's only
// allocation: the hash state, the digest and its hex form stay on the
// stack, and the model and prompt are hashed in place.
func CacheKey(req Request) string {
	h := sha256.New()
	h.Write(readOnlyBytes(req.Model))
	h.Write([]byte{0, 0}) // an empty system prompt between two separators
	h.Write(readOnlyBytes(req.Prompt))
	h.Write([]byte{0})
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(Temperature))
	// buf[8:16] stays zero: no completion cap.
	binary.LittleEndian.PutUint64(buf[16:], uint64(req.Tier))
	h.Write(buf[:])
	var sum [sha256.Size]byte
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], h.Sum(sum[:0]))
	return string(key[:])
}

// readOnlyBytes returns the bytes of s without copying them. The caller
// must not write to the slice or keep it: a hash's Write does neither.
func readOnlyBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
