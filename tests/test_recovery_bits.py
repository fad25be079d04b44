"""The exact bits of every fixed-effects fit inside ``recovery_experiment``.

The values were captured from the code before the per-replication work was
trimmed (one sort per cell median, one QR per FE fit), and any change to the
recovery path must keep them.  Each dataset's fit is pinned as ``float.hex``
of its beta, clustered SE, within R^2 and overall R^2; a fit that fails is
pinned by its error message.  The benchmark only checks recovery to within 1e-9.
"""
import pytest

from judgebench.cli import main
from judgebench.syngen import SynthConfig, recovery_experiment

from conftest import entries

# name: (config, replications)
CONFIGS = {
    "plain": (SynthConfig(n_forecasters=12, n_quarters=16, rho_own=0.4, seed=11), 3),
    "neutral": (SynthConfig(n_forecasters=12, n_quarters=16, rho_own=0.4, p_neutral=0.3, seed=21), 3),
    "participation": (SynthConfig(n_forecasters=14, n_quarters=18, rho_own_sd=0.2, participation_low=0.4,
                                  participation_high=0.9, seed=31), 3),
    "grid0": (SynthConfig(n_forecasters=12, n_quarters=16, rho_own=-0.3, p_neutral=0.3, grid=0.0, seed=41), 3),
    "bench_size": (SynthConfig(n_forecasters=200, n_quarters=80, seed=51), 2),
    "failing": (SynthConfig(n_forecasters=4, n_quarters=8, participation_low=0.3, participation_high=0.6, seed=300), 4),
}

PINNED = {
    "plain": [
        ("0x1.753db84621d3ap-2", "0x1.e521d54d61261p-5", "0x1.0b0da77b50e9dp-3", "0x1.38d465da0f188p-3"),
        ("0x1.7bc37cd6b619cp-3", "0x1.d03239cdbb64bp-5", "0x1.27a9fbaf54b4ap-5", "0x1.afb00af651c2cp-4"),
        ("0x1.a0ea6feb376fcp-4", "0x1.6da27d57bd512p-4", "0x1.5b47408cdd40dp-7", "0x1.ac7415eb489c9p-5"),
    ],
    "neutral": [
        ("0x1.11794c82f8063p-5", "0x1.4979772a4132ap-4", "0x1.2f665488238b7p-10", "0x1.857cdcbb449b4p-7"),
        ("0x1.633cb841e3009p-3", "0x1.1b595441a583ap-4", "0x1.f6082f5b6c3d1p-6", "0x1.6ee82625fc967p-4"),
        ("0x1.0989c829c5ef7p-2", "0x1.ae0a80a2b067ap-5", "0x1.1c345a18610c5p-4", "0x1.054e7892e3b7fp-3"),
    ],
    "participation": [
        ("0x1.3b9a6f22bbb81p-4", "0x1.bf0b761043a89p-4", "0x1.76df7e3111e0ap-8", "0x1.2720eade5f857p-7"),
        ("0x1.2213371be0618p-3", "0x1.e0e9ff6fe4c92p-4", "0x1.13c728e3784a9p-6", "0x1.abfd108a9d2c6p-5"),
        ("-0x1.4ec84dd900d2bp-7", "0x1.0dccd518639d8p-3", "0x1.f7b233190736ep-14", "0x1.abd2b61df30e3p-8"),
    ],
    "grid0": [
        ("-0x1.7baf70c028e5ep-2", "0x1.cee8be6f82bf6p-5", "0x1.21603beb5e990p-3", "0x1.b17327037f6bdp-4"),
        ("-0x1.722e475a58775p-3", "0x1.84609dad83af2p-5", "0x1.142a7ce66b7dfp-5", "0x1.4bb4018585081p-6"),
        ("-0x1.85deb0b4ed76ep-2", "0x1.1d4692ef19d1cp-4", "0x1.1a3f90fe50ba4p-3", "0x1.b3e0ad2c48cc5p-4"),
    ],
    "bench_size": [
        ("0x1.619252e9fb44ap-4", "0x1.ed73d0d67d9a9p-8", "0x1.e9d4bc11b92cdp-8", "0x1.40d7e6a7e51d9p-7"),
        ("0x1.4c9211679038ap-4", "0x1.e138df2876ea7p-8", "0x1.b01c789b63de1p-8", "0x1.194b2629edbc9p-7"),
    ],
    "failing": [
        ("-0x1.31abf0b76729ap-1", "0x1.c0646c009ef68p-4", "0x1.7e16ece540f44p-1", "0x1.22545a3ccff14p-3"),
        "all observations come from a single economist",
        ("0x1.bacf914c1badep-3", "0x1.b8a284a1e7f67p-3", "0x1.01a2a8518477dp-5", "0x1.189f3a58fe2a8p-9"),
        "no economist has 2 or more observations",
    ],
}

FAILING_SUMMARY_CSV = (
    b"replications,n_completed,n_failed,mean_beta,sd_beta,ci_coverage_95,rho_own_true\n"
    b"4,2,2,-0.190399354578,0.57504125489,0.5,0.1\n"
)
SUMMARY_CSV = (
    b"replications,n_completed,n_failed,mean_beta,sd_beta,ci_coverage_95,rho_own_true\n"
    b"4,4,0,0.036214598006,0.0410426081761,1,0.1\n"
)


def fit_bits(config: SynthConfig, replications: int) -> list:
    """Each replication's fit, in replication order, as hex strings or its error message."""
    return [fit.error or tuple(float(v).hex() for v in (fit.beta, fit.se_clustered, fit.r_squared,
                                                        fit.r_squared_overall))
            for fit in entries(recovery_experiment(config, replications))]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fe_fits_keep_their_bits(name):
    assert fit_bits(*CONFIGS[name]) == PINNED[name]


def test_cli_recovery_summary_keeps_its_bytes(tmp_path):
    code = main(["recovery", "--replications", "4", "--n-forecasters", "20", "--n-quarters", "24",
                 "--p-neutral", "0.2", "--participation-low", "0.7", "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "recovery_summary.csv").read_bytes() == SUMMARY_CSV


def test_cli_recovery_warns_once_per_failed_replication(tmp_path, capsys):
    code = main(["recovery", "--n-forecasters", "4", "--n-quarters", "8", "--participation-low", "0.3",
                 "--participation-high", "0.6", "--seed", "300", "--replications", "4", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: replication {rep}: {fit}" for rep, fit in enumerate(PINNED["failing"]) if isinstance(fit, str)]
    assert (tmp_path / "recovery_summary.csv").read_bytes() == FAILING_SUMMARY_CSV
