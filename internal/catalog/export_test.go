package catalog

import "time"

// Exports for the external tests, which drive the catalog through core.

var TestFed = testFed

func (s *Store) SetClock(now func() time.Time) { s.setClock(now) }
