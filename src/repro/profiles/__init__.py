"""Profile data structures, aggregation, serialization, and caching."""

from repro.profiles.aggregate import (
    aggregate_profiles,
    leave_one_out_aggregates,
    normalized_copy,
)
from repro.profiles.cache import (
    cached_profile_for_source,
    load_cached_profile,
    profile_cache_key,
    store_profile,
)
from repro.profiles.profile import BranchOutcome, Profile
from repro.profiles.serialize import (
    dumps_profile,
    loads_profile,
    profile_from_dict,
    profile_to_dict,
    profiles_equal,
)

__all__ = [
    "BranchOutcome",
    "Profile",
    "aggregate_profiles",
    "cached_profile_for_source",
    "dumps_profile",
    "leave_one_out_aggregates",
    "load_cached_profile",
    "loads_profile",
    "normalized_copy",
    "profile_cache_key",
    "profile_from_dict",
    "profile_to_dict",
    "profiles_equal",
    "store_profile",
]
