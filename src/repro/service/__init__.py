"""``repro.service`` — the campaign service layer.

Everything that turns :func:`repro.runner.run_campaign` from a library call
into a shared, crash-safe facility:

- :mod:`repro.service.journal` — :class:`CampaignJournal`, an append-only
  record of completed cell hashes with atomic appends. A campaign
  SIGKILLed mid-run resumes by recomputing only the cells its journal (and
  the result store) never saw complete, and the merged result is
  byte-identical to an uninterrupted run
  (``tests/integration/test_kill_resume.py`` proves this by actually
  killing a subprocess).
- :mod:`repro.service.queue` — :class:`SubmissionQueue`, a filesystem FIFO
  of campaign requests safe for concurrent submitters and drainers (the
  many-clients story: any process submits, one pool drains).
- :mod:`repro.service.dispatcher` — :class:`Dispatcher`, which validates
  submissions, drains the queue strictly FIFO through one worker pool, and
  reports per-campaign status (pending/running cells, ETA from telemetry).

CLI surface: ``repro service submit <target>``, ``repro service status``,
``repro service drain``; ``repro campaign <target> --resume``. See
``docs/SERVICE.md``.
"""

from repro.service.dispatcher import Dispatcher, DrainReport
from repro.service.journal import (
    BEGIN,
    COMPLETED,
    FAILED,
    CampaignJournal,
    JournalState,
    as_journal,
)
from repro.service.queue import (
    DEFAULT_SERVICE_ROOT,
    SERVICE_METRICS,
    SubmissionQueue,
    Ticket,
)

__all__ = [
    "BEGIN",
    "COMPLETED",
    "DEFAULT_SERVICE_ROOT",
    "FAILED",
    "SERVICE_METRICS",
    "CampaignJournal",
    "Dispatcher",
    "DrainReport",
    "JournalState",
    "SubmissionQueue",
    "Ticket",
    "as_journal",
]
