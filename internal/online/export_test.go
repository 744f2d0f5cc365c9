package online

import "dmra/internal/mec"

// runWithPrearrivedEngine runs an incremental session whose delta engine
// already holds every UE profile as pending, so the session's own
// arrivals collide with engine state: the first arrival of a UE with
// candidate links fails inside engine.Incremental.Arrive. It forces the
// session's engine-error path without a broken engine.
func runWithPrearrivedEngine(cfg Config) (Report, error) {
	s, err := newSession(cfg)
	if err != nil {
		return Report{}, err
	}
	for u := range s.net.UEs {
		if err := s.inc.Arrive(mec.UEID(u)); err != nil {
			return Report{}, err
		}
	}
	return s.run()
}
