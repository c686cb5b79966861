"""Configuration and the three seeded Xraft bugs."""

from __future__ import annotations

__all__ = ["XraftConfig"]


class XraftConfig:
    """Behaviour switches for :class:`~repro.systems.pyxraft.XraftNode`.

    The bug flags reproduce the paper's three previously-unknown Xraft
    bugs (Table 2):

    * ``bug_duplicate_vote_count`` (Xraft bug #1 [23]) — ``votesGranted``
      is implemented as a plain integer counter incremented on every
      granted response, so a duplicated response message is counted
      twice and a node can become leader without a real quorum.
      Detected as *inconsistent state for variable votesGranted*.
    * ``bug_votedfor_not_persisted`` (Xraft bug #2 [22], Figure 8) —
      the node does not persist ``votedFor`` when granting a vote, so a
      restart forgets the grant and the node votes again in the same
      term, allowing two leaders.  Detected as *inconsistent state for
      variable votedFor* right after the restart.
    * ``bug_stale_vote_grant`` (Xraft bug #3 [24], Figure 9) — the
      vote-granting path mixes up which log counts: when the candidate
      looks stale against the *whole* local log but fresh against the
      *committed prefix*, the node sends ``granted=true`` anyway — and,
      because this code path treats the grant as not-a-real-vote, never
      records ``votedFor``.  A restarted/stale candidate can therefore
      collect votes the verified state space forbids and become a second
      leader.  Detected as *unexpected action HandleRequestVoteResponse*
      (the implementation offers a ``granted=true`` response where the
      specification only allows ``granted=false``).  The paper's Xraft
      mechanism involves NoOp log entries confusing the same check; ours
      exercises the identical divergence via the uncommitted-entry path
      — see EXPERIMENTS.md.
    """

    def __init__(self, bug_duplicate_vote_count: bool = False,
                 bug_votedfor_not_persisted: bool = False,
                 bug_stale_vote_grant: bool = False):
        self.bug_duplicate_vote_count = bug_duplicate_vote_count
        self.bug_votedfor_not_persisted = bug_votedfor_not_persisted
        self.bug_stale_vote_grant = bug_stale_vote_grant

    def __repr__(self) -> str:
        flags = [name for name, on in vars(self).items() if on]
        return f"XraftConfig({', '.join(flags) or 'correct'})"
