"""IPv4 / UDP / Ethernet size constants.

The simulator moves packets as Python objects and counts their bytes;
the control-bandwidth analyses in §5.3 are in real bytes ("92 16-byte
Count messages fit in a 1480-byte maximum-sized TCP segment on
Ethernet"), so the segment size the batching and the cost model read is
defined here, beside the header sizes it derives from.
"""

#: Ethernet MTU payload available to IP.
ETHERNET_MTU = 1500
#: MSS used by the paper: 1500 - 20 (IP)  == 1480 bytes of TCP segment.
ETHERNET_TCP_SEGMENT = 1480

UDP_HEADER_LEN = 8
