"""Queueing models of the benchmark applications.

Training services (paper section 3.2.1):

- :mod:`repro.apps.solr` -- Apache Solr, CPU-bound enterprise search
  (12 GB in-memory index).
- :mod:`repro.apps.memcache` -- Memcached, memory-bandwidth-bound
  object cache (10 GB Twitter dataset) that becomes IO-queue-bound
  under a memory limit.
- :mod:`repro.apps.cassandra` -- Apache Cassandra under YCSB mixes,
  tunable between CPU, network, IO-bandwidth and IO-wait bottlenecks.

Evaluation applications (section 4, never used for training):

- :mod:`repro.apps.elgg` -- three-tier web service (Elgg front-end,
  InnoDB database, Memcache).
- :mod:`repro.apps.teastore` -- the 7-service TeaStore storefront.
- :mod:`repro.apps.sockshop` -- the 14-service Sockshop storefront.
"""

from repro.apps.base import ApplicationModel, ServiceSpec
from repro.apps.cassandra import cassandra_application
from repro.apps.elgg import elgg_application
from repro.apps.memcache import memcache_application
from repro.apps.sockshop import sockshop_application
from repro.apps.solr import solr_application
from repro.apps.teastore import teastore_application

__all__ = [
    "ServiceSpec",
    "ApplicationModel",
    "solr_application",
    "memcache_application",
    "cassandra_application",
    "elgg_application",
    "teastore_application",
    "sockshop_application",
]
