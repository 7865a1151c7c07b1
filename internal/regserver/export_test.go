package regserver

// SetBestCache resizes the encoded-response cache for tests and
// benchmarks in and outside the package; n <= 0 disables it, which is
// BenchmarkServeBest's uncached reference arm.
func (s *Server) SetBestCache(n int) { s.setBestCache(n) }
