"""Float64 golden: ``dtype_bytes=8`` reproduces the pinned float64 numerics.

The values below were recorded when every parameter was float64
regardless of ``ModelConfig.dtype_bytes``.  Training the same fig18-shaped
DLRM (one Hotline trainer) and Taobao-shaped TBSM (K=4 stale-2 replicas
with a lookahead cache) at ``dtype_bytes=8`` must reproduce them, so the
float64 path is the same code as before, only selected by the config.
The fig18-shaped DLRM on K=4 ``stale-1`` and ``overlap`` replicas was
pinned later, while sharded stale-k steps still ran one dense pass per
replica; it pins that they now run as one stacked pass, bit for bit.

Two checks, because bit-exact float64 results depend on the host:

* everywhere, the per-step losses and every final parameter's L2 norm
  match the pinned values to a relative :data:`RTOL`;
* on the host the digests were pinned on (:data:`PINNED_HOST`), a SHA-256
  over every loss and parameter bit matches exactly.  OpenBLAS picks its
  dgemm kernels by CPU and numpy its reduction loops by SIMD extensions,
  so elsewhere the last ulp — and the digest with it — may move on
  correct code, and that check skips.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.core.engine import TrainingEngine
from repro.core.pipeline import HotlineTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.models import RM1, RM2
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM

#: Relative tolerance of the pinned losses and parameter norms.  Forcing
#: other OpenBLAS cores (Haswell, Sandybridge, Katmai) and numpy's X86_V3
#: loops moved them by at most 6e-16; rounding the dense features through
#: float32 once moves them by 1.3e-9.
RTOL = 1e-12

DLRM_GOLDEN = "f0ba64f70cf9b8164b92c7d52833812820cd802a588a6df48f35950b98ee8d45"
TBSM_GOLDEN = "0cb527f5b367b5ea46d39d473770fa59befdf483793708f2d627a15f37a4631c"
DLRM_STALE1_GOLDEN = "090dd77d40955fb10590a3c3ac17ce655ab45dadb9ffc40420b4a51736774c1a"
DLRM_OVERLAP_GOLDEN = "ed46b6f28829076fae2de8f4badd3508bf6bdd5f25f158ae5a3e88b22140d55b"

#: The numpy, BLAS, OpenBLAS core and numpy SIMD extensions the digests
#: were pinned with (a 2-core x86-64 Xeon).
PINNED_HOST = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "blas_core": "SkylakeX",
    "simd": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
}

#: Per-step training losses, then the L2 norm of every final parameter in
#: ``state_snapshot()`` order.
DLRM_LOSSES = (
    170.48099679062148, 169.86499603205468, 165.79789472173968,
    164.79684159210265, 169.11341782140232, 165.66018598469907,
    155.7910531281479, 168.42586055874762, 166.55796334296514,
    161.34059404379354, 164.02422434754664, 166.59711939102004,
)
DLRM_PARAMETER_NORMS = (
    5.067385918531698, 0.016593546640136975, 18.465377645435627,
    0.01964484958496625, 10.122185741633308, 0.02224641347897343,
    5.185640877531462, 0.020897992261094865, 20.672514585020362,
    0.06814264151107272, 18.43213782932352, 0.1094143044038161,
    1.4382360650825303, 0.136005508883208, 2.3114587942330576,
    2.305509256759632, 2.321171080360771, 2.336112476743724,
    2.3324816350075563, 2.330714409281658, 2.2065681556405488,
    2.2717125925369266, 2.424184185685234, 2.3326280902132637,
    2.404447460228283, 2.425523298948106, 2.481168204378855,
    2.3081650494929233, 2.3079573179852075, 2.324822798497229,
    2.2777331076759104, 2.3447555496240975, 2.264010707479962,
    2.3240858073285633, 2.3258532956769367, 2.264334195339065,
    2.4457706478171106, 2.361719317854195, 2.157971536730102,
    2.262329062355189,
)
TBSM_LOSSES = (
    179.2231325315162, 179.56039920778463, 178.0511644348432,
    175.04432979990068, 171.36747617041416, 167.64255021853026,
    169.41481151067643, 164.6035387573009, 159.9245146669341,
    155.71848867084833, 159.62410001981294, 154.14621454879517,
)
TBSM_PARAMETER_NORMS = (
    1.5825679618224306, 0.06423088967255036, 6.362804482459148,
    0.1441951106372392, 6.345543794603504, 0.27873806901262793,
    1.4552654273340506, 0.2931590140033791, 2.311109779782743,
    2.3086993141719785, 2.284864541734591,
)
DLRM_STALE1_LOSSES = (
    170.4809967906215, 173.24560926609666, 167.11443192532397,
    165.3836153369416, 169.24891000871315, 165.41706514153233,
    155.48275479378003, 168.2056277120128, 166.95195817878954,
    161.26397149919376, 164.2489335111795, 166.7928235462619,
)
DLRM_STALE1_PARAMETER_NORMS = (
    5.067069047211397, 0.015853366067832, 18.465298745851953,
    0.018706147518770564, 10.122021019719469, 0.021094608030929697,
    5.185280617262321, 0.020381869934119185, 20.67234992963466,
    0.06933480205895473, 18.43200863585885, 0.11312038762703028,
    1.4350673710891, 0.14241956919350732, 2.3114544231690966,
    2.3055147266050993, 2.3211578414046, 2.3361214996512847,
    2.3324326916789446, 2.330656744825123, 2.2066237559878243,
    2.2716561457563933, 2.4240473399434848, 2.3325914962759806,
    2.4042107527071557, 2.425342800970993, 2.481103960477286,
    2.3081781501157934, 2.3079572748245876, 2.324834316299926,
    2.2777057608073807, 2.344807101923334, 2.263801809272441,
    2.323963178200147, 2.325801695533213, 2.2643023315445245,
    2.445612542474898, 2.3615371344101743, 2.1577409202639886,
    2.2622487350545533,
)
DLRM_OVERLAP_LOSSES = (
    170.4809967906215, 169.86499603205468, 165.7978947217397,
    164.79684159210268, 169.11341782140227, 165.66018598469907,
    155.7910531281479, 168.42586055874767, 166.5579633429652,
    161.34059404379352, 164.02422434754666, 166.59711939102007,
)
DLRM_OVERLAP_PARAMETER_NORMS = (
    5.067385918531698, 0.016593546640136975, 18.465377645435627,
    0.01964484958496625, 10.122185741633308, 0.02224641347897343,
    5.185640877531462, 0.020897992261094865, 20.67251458502036,
    0.06814264151107272, 18.43213782932352, 0.1094143044038161,
    1.4382360650825303, 0.136005508883208, 2.3114587942330576,
    2.305509256759632, 2.3211710803607706, 2.336112476743724,
    2.332481635007557, 2.330714409281658, 2.2065681556405483,
    2.271712592536927, 2.424184185685234, 2.3326280902132632,
    2.404447460228283, 2.425523298948106, 2.481168204378855,
    2.308165049492923, 2.3079573179852075, 2.324822798497229,
    2.2777331076759104, 2.3447555496240975, 2.2640107074799616,
    2.3240858073285633, 2.325853295676937, 2.264334195339065,
    2.4457706478171106, 2.361719317854195, 2.157971536730102,
    2.262329062355189,
)


def _openblas_core() -> str | None:
    """The CPU core OpenBLAS dispatched to, for numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _host() -> dict:
    """This host's counterpart of :data:`PINNED_HOST`."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _openblas_core(),
        "simd": tuple(config["SIMD Extensions"].get("found", ())),
    }


def _digest(losses: tuple[float, ...], snapshot: dict[str, np.ndarray]) -> str:
    """SHA-256 over the per-step losses and every final parameter's bytes."""
    digest = hashlib.sha256()
    for loss in losses:
        digest.update(float(loss).hex().encode())
    for name, value in snapshot.items():
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def _train(trainer, config, batch_size: int, batches: int):
    log = generate_click_log(config.dataset, batch_size * batches, seed=2024)
    loader = MiniBatchLoader(log, batch_size=batch_size, shuffle=True, seed=3)
    losses = TrainingEngine(trainer).train(loader, epochs=2).losses
    return tuple(losses), trainer.model.state_snapshot()


@cache
def _fig18_run():
    config = replace(RM2.scaled(max_rows_per_table=1200), dtype_bytes=8)
    return _train(HotlineTrainer(DLRM(config, seed=5), lr=0.3), config, 256, 6)


@cache
def _taobao_run():
    config = replace(RM1.scaled(max_rows_per_table=5000), dtype_bytes=8)
    trainer = ShardedHotlineTrainer(
        TBSM(config, seed=5), 4, lr=0.3, mode="stale-2", lookahead_window=3
    )
    return _train(trainer, config, 256, 6)


@cache
def _dlrm_k4_run(mode: str):
    config = replace(RM2.scaled(max_rows_per_table=1200), dtype_bytes=8)
    trainer = ShardedHotlineTrainer(DLRM(config, seed=5), 4, lr=0.3, mode=mode)
    return _train(trainer, config, 256, 6)


RUNS = {
    "fig18-dlrm": (_fig18_run, DLRM_LOSSES, DLRM_PARAMETER_NORMS, DLRM_GOLDEN),
    "taobao-tbsm-k4-stale2-lookahead": (
        _taobao_run,
        TBSM_LOSSES,
        TBSM_PARAMETER_NORMS,
        TBSM_GOLDEN,
    ),
    "fig18-dlrm-k4-stale1": (
        lambda: _dlrm_k4_run("stale-1"),
        DLRM_STALE1_LOSSES,
        DLRM_STALE1_PARAMETER_NORMS,
        DLRM_STALE1_GOLDEN,
    ),
    "fig18-dlrm-k4-overlap": (
        lambda: _dlrm_k4_run("overlap"),
        DLRM_OVERLAP_LOSSES,
        DLRM_OVERLAP_PARAMETER_NORMS,
        DLRM_OVERLAP_GOLDEN,
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_float64_matches_pinned_losses_and_parameter_norms(run):
    train, losses_pinned, norms_pinned, _ = RUNS[run]
    losses, snapshot = train()
    assert all(value.dtype == np.float64 for value in snapshot.values())
    np.testing.assert_allclose(losses, losses_pinned, rtol=RTOL, atol=0)
    norms = [np.linalg.norm(value) for value in snapshot.values()]
    np.testing.assert_allclose(norms, norms_pinned, rtol=RTOL, atol=0)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_float64_matches_golden_digest_on_pinned_host(run):
    host = _host()
    if host != PINNED_HOST:
        pytest.skip(f"digest pinned on {PINNED_HOST}, this host is {host}")
    train, _, _, golden = RUNS[run]
    assert _digest(*train()) == golden


if __name__ == "__main__":  # prints this host and the digests to pin
    print(_host())
    print(_digest(*_fig18_run()))
    print(_digest(*_taobao_run()))
    print(_digest(*_dlrm_k4_run("stale-1")))
    print(_digest(*_dlrm_k4_run("overlap")))
