package parallel

// Team is the handle passed to the body of a team-policy launch,
// mirroring Kokkos TeamPolicy member types. A team corresponds to a
// GPU thread block: LeagueRank identifies the block, Size the number
// of cooperating threads.
type Team struct {
	leagueRank int
	leagueSize int
	teamSize   int
}

// LeagueRank returns the index of this team within the league.
func (t Team) LeagueRank() int { return t.leagueRank }

// LeagueSize returns the number of teams in the league.
func (t Team) LeagueSize() int { return t.leagueSize }

// Size returns the number of threads in the team.
func (t Team) Size() int { return t.teamSize }

// ThreadRange executes body(i) for i in [0, n), the work the team's
// threads would perform cooperatively (Kokkos TeamThreadRange). On the
// CPU substrate the team's threads are simulated by a single worker,
// so the range runs sequentially; the device cost model accounts for
// the coalescing benefit separately.
func (t Team) ThreadRange(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

// ForTeams launches league teams of teamSize threads each and executes
// body once per team, distributing teams across the pool's persistent
// workers like any other launch. Small leagues run inline on the
// submitting goroutine.
func (p *Pool) ForTeams(league, teamSize int, body func(t Team)) {
	if league <= 0 {
		return
	}
	if teamSize <= 0 {
		teamSize = 1
	}
	p.checkOpen()
	grain := p.grainSize(league)
	if p.workers == 1 || league <= grain {
		runTeams(body, 0, league, league, teamSize)
		return
	}
	// The launch state carries body itself: wrapping it in a range
	// closure would allocate on every launch.
	ls := statePool.Get().(*launchState)
	ls.team, ls.teamSize = body, teamSize
	p.submit(ls, league, grain)
}

// runTeams executes body for the teams [lo, hi) of a league.
func runTeams(body func(t Team), lo, hi, league, teamSize int) {
	for r := lo; r < hi; r++ {
		body(Team{leagueRank: r, leagueSize: league, teamSize: teamSize})
	}
}
