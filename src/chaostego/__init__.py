"""LSB image steganography driven by cross-coupled chaotic maps.

Pixel positions for payload bits come from two cross-coupled chaotic maps
seeded by four secret reals and one public coupling factor; change-mark
matrices record which pixels were touched.  Quality (PSNR, entropy) and
detectability (chi-square pair-of-values attack) metrics are included.

The package root holds the names README's "Library use" shows; everything
else is imported from its module (``chaostego.codec``, ``chaostego.imagery``,
``chaostego.errors``, ...).
"""

from .analysis import psnr
from .chaos import ImageDims, select_positions
from .codec import decode_message, embed, encode_message, extract
from .imagery import load_pnm
from .keymat import generate_keys

__version__ = "0.1.0"
