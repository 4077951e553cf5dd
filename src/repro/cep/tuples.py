"""The partition key of CEP sensor streams.

Streams in this engine carry plain dictionaries — the Kinect middleware
produces flat records and queries reference fields by name.  A stream
checks the fields it is declared with (:attr:`repro.streams.Stream.fields`);
this module only names the field every sensor tuple is partitioned on.
"""

from __future__ import annotations

#: Canonical partition key of the sensor streams: the tracked player id the
#: Kinect middleware stamps on every frame.  The matcher's run table and the
#: transformer's smoothing state are keyed by this field so concurrent users
#: never share detection state; see :class:`repro.cep.matcher.MatcherConfig`.
DEFAULT_PARTITION_FIELD = "player"
