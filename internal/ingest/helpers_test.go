package ingest

// Accessors and oracles that only this package's tests use.

// Key returns the content-addressed identity of the problem: a SHA-256 over
// the canonical encoding of (graph, platform, options), in the form
// "sha256:<hex>". Identical problems — regardless of the format they were
// ingested from or the execution settings they run under — share a key,
// which is what the service's result cache and single-flight coalescing
// key on.
func (p *Problem) Key() (string, error) {
	enc, err := p.CanonicalEncoding()
	if err != nil {
		return "", err
	}
	return EncodingKey(enc), nil
}
