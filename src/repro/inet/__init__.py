"""IPv4 substrate: addresses, size constants, and IGMP.

EXPRESS occupies a carved-out slice of the class-D space
(232.0.0.0/8, "2^24 class D addresses ... allocated by IANA for
experimental use by the single-source multicast model", Figure 2); the
rest of class D keeps conventional IGMP group semantics. This package
provides both the addressing arithmetic and the IGMP host-membership
protocol the paper assumes remains in use alongside ECMP.
"""

from repro.inet.addr import (
    CLASS_D_FIRST,
    CLASS_D_LAST,
    SSM_FIRST,
    SSM_LAST,
    channel_suffix,
    format_address,
    is_class_d,
    is_ssm,
    is_unicast,
    parse_address,
    ssm_address,
)

__all__ = [
    "CLASS_D_FIRST",
    "CLASS_D_LAST",
    "SSM_FIRST",
    "SSM_LAST",
    "channel_suffix",
    "format_address",
    "is_class_d",
    "is_ssm",
    "is_unicast",
    "parse_address",
    "ssm_address",
]
