"""Shared numerical kernels: Gaussian densities, SPD solves, chi-square tails.

Dense matrices and vectors are plain ``numpy.ndarray`` objects throughout.
Only numpy and the standard library are used: the Gaussian tails come from
one piecewise-polynomial kernel for the scaled complementary error function.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "PD_TOL",
    "chi_square_sf",
    "log_normal_cdf_and_mills",
    "log_normal_pdf",
    "normal_cdf",
    "normal_pdf",
    "solve_spd",
]

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_SQRT_2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

# normal_cdf works through long arrays in blocks of this many elements, so
# that the kernel's dozen temporaries stay in cache: on 40,000 elements
# this is about a third faster than one pass over the whole array.
_BLOCK = 8192

PD_TOL = 1e-12
_SYM_TOL = 1e-10


class NotPositiveDefinite(Exception):
    """Symmetric factorization met a pivot at or below the tolerance."""


def normal_pdf(z):
    """Standard normal density phi(z). Accepts scalars or arrays."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z - _LOG_SQRT_2PI)
    return float(out) if out.ndim == 0 else out


def log_normal_pdf(z):
    """log phi(z), safe for large |z|."""
    z = np.asarray(z, dtype=float)
    out = -0.5 * z * z - _LOG_SQRT_2PI
    return float(out) if out.ndim == 0 else out


def _erfcx(x: np.ndarray) -> np.ndarray:
    """Scaled complementary error function exp(x**2) * erfc(x) for x >= 0.

    Evaluated as h(t) / (x + K) with t = (x - K) / (x + K) in [-1, 1] and
    h(t) = (x + K) * erfcx(x) a piecewise polynomial in t (see
    ``scripts/erfcx_table.py``); within 1.1e-15 relative of the exact value.
    Gives 0 at x = inf and passes nan through.
    """
    pieces = _ERFCX_POLY.shape[1]
    s = 1.0 / (x + _ERFCX_K)
    u = pieces - (_ERFCX_K * pieces) * s  # (t + 1) * pieces / 2, in [0, pieces]
    start = np.floor(np.fmin(u, pieces - 1))  # fmin maps nan to the last piece
    w = u - start
    piece = start.astype(np.intp)
    # piece is in range, so take() may skip its index checks ("clip").
    h = _ERFCX_POLY[0].take(piece, mode="clip")
    for coef in _ERFCX_POLY[1:]:
        h *= w
        h += coef.take(piece, mode="clip")
    h *= s
    return h


def normal_cdf(z):
    """Standard normal CDF Phi(z) via the scaled complementary error function.

    Computed from the tail mass of |z| so that Phi(z) + Phi(-z) sums to
    exactly 1.0 in floating point.
    """
    z = np.asarray(z, dtype=float)
    if z.size > _BLOCK:
        flat = z.ravel()
        blocks = [normal_cdf(flat[i : i + _BLOCK]) for i in range(0, flat.size, _BLOCK)]
        return np.concatenate(blocks).reshape(z.shape)
    x = np.abs(z) / _SQRT_2
    tail = _erfcx(x)
    tail *= np.exp(-x * x)
    tail *= 0.5
    out = np.where(z < 0.0, tail, 1.0 - tail)
    return float(out) if out.ndim == 0 else out


def log_normal_cdf_and_mills(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Phi(z) and the inverse Mills ratio phi(z) / Phi(z) for a finite array z.

    Both come from one erfcx value e = erfcx(|z| / sqrt 2): the ratio is
    sqrt(2/pi) / e for z < 0, and that times q / (1 - q) for z >= 0, with
    q = Phi(-z) = exp(-z**2/2) e / 2.
    """
    e = _erfcx(np.abs(z) / _SQRT_2)
    log_tail = np.log(0.5 * e) - 0.5 * z * z  # log Phi(-|z|)
    q = np.exp(log_tail)
    left = z < 0.0
    log_cdf = np.where(left, log_tail, np.log1p(-q))
    ratio = _SQRT_2_OVER_PI / e * np.where(left, 1.0, q / (1.0 - q))
    return log_cdf, ratio


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    ``b`` may be a vector or a matrix of stacked right-hand sides.

    Raises:
        ValueError: A is not square or not symmetric within 1e-10.
        NotPositiveDefinite: factorization failed or a pivot fell at or
            below PD_TOL relative to the diagonal scale.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        L = np.linalg.cholesky(0.5 * (A + A.T))
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    diag_floor = PD_TOL * max(1.0, float(np.abs(np.diag(A)).max()))
    if float(np.min(np.diag(L)) ** 2) <= diag_floor:
        raise NotPositiveDefinite("pivot at or below pd_tol")
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P(X >= x) for X ~ chi-square with df degrees.

    Closed form for integer df, with y = x / 2: exp(-y) * sum of y**k / k!
    for k < df / 2 when df is even; erfc(sqrt y) plus
    exp(-y) * sum of y**(k - 1/2) / Gamma(k + 1/2) for 1 <= k <= df // 2
    when df is odd.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    term = math.exp(-y)  # y**(a - 1) * exp(-y) / Gamma(a), for a = 1 or 3/2 upward
    if df % 2 == 0:
        total, a = 0.0, 1.0
    else:
        total, a = math.erfc(math.sqrt(y)), 1.5
        term *= math.sqrt(y) / math.gamma(1.5)
    while a <= 0.5 * df:
        total += term
        term *= y / a
        a += 1.0
    return total


# 32 pieces x degree 6; generated by scripts/erfcx_table.py
_ERFCX_K = 2.5
_ERFCX_POLY = np.array(
    [
        [
            2.1638113286052492e-10, 2.034798457451552e-10, 1.8545395244848373e-10,
            1.6218766556683588e-10, 1.337426228798327e-10, 1.0039004472124962e-10,
            6.263743073767403e-11, 2.1246087627157665e-11, -2.2764562740292993e-11,
            -6.812992517024131e-11, -1.1337391119247018e-10, -1.5686563513171126e-10,
            -1.9689943094518191e-10, -2.3179576721439623e-10, -2.600173224052975e-10,
            -2.8029094911939723e-10, -2.917230916373737e-10, -2.9389418601261133e-10,
            -2.8691747581015915e-10, -2.714501686152236e-10, -2.486501626687335e-10,
            -2.2007924186363862e-10, -1.8756243782871017e-10, -1.5302130679814176e-10,
            -1.1830407316387434e-10, -8.50363168858003e-11, -5.4511620400161254e-11,
            -2.7633307400956908e-11, -4.908323985474508e-12, 1.3514850181727825e-11,
            2.7778395958280556e-11, 3.823349347133096e-11,
        ],
        [
            9.479314029535676e-09, 1.0780031573942293e-08, 1.2003435203526942e-08,
            1.3118699606332086e-08, 1.4094288358004095e-08, 1.4899020298998789e-08,
            1.5503330530451004e-08, 1.5880693495067937e-08, 1.6009153220882565e-08,
            1.5872881288173524e-08, 1.5463658606866584e-08, 1.4782155809055806e-08,
            1.3838873015346055e-08, 1.2654597563741602e-08, 1.1260252610719722e-08,
            9.696043959276357e-09, 8.00986844774612e-09, 6.255022593963851e-09,
            4.4873381357268366e-09, 2.761959867967849e-09, 1.1300549485573329e-09,
            -3.6421561532100384e-10, -1.6861378417632846e-09, -2.8120316229925575e-09,
            -3.729825495112478e-09, -4.43860140385198e-09, -4.947235919319919e-09,
            -5.27238234254878e-09, -5.4361051536893e-09, -5.463483485406795e-09,
            -5.380449742998783e-09, -5.212042673599183e-09,
        ],
        [
            -6.397777706604242e-07, -5.891475877329582e-07, -5.322121356682045e-07,
            -4.6943496045866483e-07, -4.0143530521049583e-07, -3.2898897429165337e-07,
            -2.530233883729056e-07, -1.7460594264670918e-07, -9.492499911883948e-08,
            -1.5263179212755115e-08, 6.30369199331567e-08, 1.38613891346671e-07,
            2.1013421385792934e-07, 2.763424268410868e-07, 3.361120657896411e-07,
            3.884940943618619e-07, 4.3275924731519466e-07, 4.684307038314952e-07,
            4.953039213351246e-07, 5.134513092691152e-07, 5.23210675462363e-07,
            5.251579179944226e-07, 5.200660673683574e-07, 5.088542581440875e-07,
            4.925312700842061e-07, 4.7213872419196236e-07, 4.4869875744839206e-07,
            4.231700842399317e-07, 3.964149726201828e-07, 3.691780990515984e-07,
            3.420767891516726e-07, 3.1560103519148275e-07,
        ],
        [
            -3.5613509287672574e-05, -3.807349892135373e-05, -4.031821864717033e-05,
            -4.232332304176881e-05, -4.4066631439256854e-05, -4.5528754281762424e-05,
            -4.66937116191934e-05, -4.7549518684729974e-05, -4.8088710321265766e-05,
            -4.830877398788676e-05, -4.821246061552351e-05, -4.780794418342354e-05,
            -4.7108804962223095e-05, -4.61338181776942e-05, -4.4906539417563046e-05,
            -4.345469013302287e-05, -4.180936038494677e-05, -4.000406044486725e-05,
            -3.807366650610495e-05, -3.605331688189064e-05, -3.397732195358886e-05,
            -3.187815237421032e-05, -2.978556485158061e-05, -2.772591335592946e-05,
            -2.5721676971662274e-05, -2.379121593205375e-05, -2.1948747329031003e-05,
            -2.020451434825039e-05, -1.8565109914842072e-05, -1.703390865782916e-05,
            -1.561156025070199e-05, -1.4296501533473731e-05,
        ],
        [
            0.003926035557640669, 0.003815454401304709, 0.0036978098705415527,
            0.003573784756675141, 0.0034441317960432864, 0.003309666237094611,
            0.003171256534394752, 0.0030298132298129457, 0.002886276161325831,
            0.0027416002279542864, 0.0025967400313096274, 0.0024526338045863707,
            0.002310187121773095, 0.002170256945504176, 0.0020336366130314742,
            0.0019010423683335905, 0.0017731020179520371, 0.0016503462150001481,
            0.0015332027600813854, 0.0014219941545529245, 0.0013169384608515125,
            0.0012181533313979183, 0.0011256628802113467, 0.0010394069091296193,
            0.0009592518808689142, 0.0008850029665741041, 0.0008164164912311117,
            0.0007532121532237214, 0.0006950844936037542, 0.0006417132200264896,
            0.0005927721313162479, 0.000547936524050676,
        ],
        [
            -0.14226155607332502, -0.13451883590212493, -0.12700444906558578,
            -0.11973185169907931, -0.11271306332806458, -0.10595853409761208,
            -0.09947702874471749, -0.09327553101185708, -0.08735917200110895,
            -0.08173118560023786, -0.07639289356338427, -0.07134372209688616,
            -0.0665812508951195, -0.06210129451664492, -0.057898014828260055,
            -0.05396406203104015, -0.05029074058993412, -0.04686819529920581,
            -0.04368561181599022, -0.04073142536448652, -0.037993531019700794,
            -0.035459489062790214, -0.033116719367003014, -0.03095267959293102,
            -0.028955023075991924, -0.02711173357903744, -0.025411235442008673,
            -0.023842478969747154, -0.02239500205371267, -0.021058969946328544,
            -0.01982519575617519, -0.018685144602711187,
        ],
        [
            2.5, 2.361628235892952, 2.2308862027291334,
            2.1075387252921947, 1.9913378788726745, 1.8820244935019386,
            1.779329782897574, 1.6829770795182102, 1.5926836535134767,
            1.5081625900247604, 1.4291246964200595, 1.3552804088145725,
            1.2863416658172693, 1.222023717015147, 1.1620468343910562,
            1.1061378967487103, 1.0540318203057177, 1.0054728128507433,
            0.9602154340979253, 0.9180254508798529, 0.8786804822948572,
            0.8419704365061356, 0.8076977471959933, 0.7756774233367183,
            0.7457369306287674, 0.7177159264398144, 0.6914658722265066,
            0.6668495482254109, 0.6437404947646085, 0.6220224030685445,
            0.6015884761617156, 0.5823407777007241,
        ],
    ]
)
