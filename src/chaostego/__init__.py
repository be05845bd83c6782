"""LSB image steganography driven by cross-coupled chaotic maps.

Pixel positions for payload bits come from two cross-coupled chaotic maps
seeded by four secret reals and one public coupling factor; change-mark
matrices record which pixels were touched.  Quality (PSNR, entropy) and
detectability (chi-square pair-of-values attack) metrics are included.
"""

from .analysis import (
    AttackPoint,
    CapacityReport,
    EntropyReport,
    QualityReport,
    capacity_report,
    chi_square_attack,
    gamma_q,
    histogram_entropy,
    neighbor_diff_entropy,
    psnr,
)
from .chaos import (
    ChaosState,
    ImageDims,
    bifurcation_scan,
    coupled_step,
    initial_state,
    lyapunov_estimate,
    map_step,
    sanitize,
    select_positions,
    to_pixel,
)
from .codec import (
    MessagePayload,
    SideMatrices,
    StegoBundle,
    bit_error_rate,
    decode_message,
    embed,
    encode_message,
    extract,
)
from .errors import (
    CapacityError,
    ChaostegoError,
    DecodeError,
    DimensionMismatch,
    DomainError,
    EncodingError,
    ExtractError,
    InsufficientCapacity,
    ParseError,
)
from .imagery import (
    BitMatrix,
    RasterImage,
    flip_count,
    get_lsb,
    load_pbm,
    load_pnm,
    save_pbm,
    save_pnm,
    set_lsb,
)
from .keymat import (
    ExchangeTranscript,
    PublicCoupling,
    SecretKeySet,
    generate_keys,
    parse_public_key,
    parse_secret_keys,
    format_public_key,
    format_secret_keys,
    simulate_exchange,
    validate_coupling,
    validate_keys,
)

__version__ = "0.1.0"
