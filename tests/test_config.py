"""Simulation-parameter validation (Table 1)."""

import pytest

from repro.config import (
    AUTOTUNE_STRATEGIES,
    PAPER_STRUCTURE_4864,
    PAPER_STRUCTURE_10240,
    PARAMETER_RANGES,
    SimulationParameters,
)


class TestValidation:
    def test_defaults_valid(self):
        SimulationParameters()

    def test_nkz_range(self):
        with pytest.raises(ValueError):
            SimulationParameters(Nkz=22, Nqz=1)

    def test_norb_range(self):
        with pytest.raises(ValueError):
            SimulationParameters(Norb=31)

    def test_n3d_fixed_at_three(self):
        with pytest.raises(ValueError):
            SimulationParameters(N3D=2)

    def test_nqz_bounded_by_nkz(self):
        with pytest.raises(ValueError):
            SimulationParameters(Nkz=3, Nqz=5)

    def test_nw_bounded_by_ne(self):
        with pytest.raises(ValueError):
            SimulationParameters(NE=50, Nw=60)

    def test_nb_smaller_than_na(self):
        with pytest.raises(ValueError):
            SimulationParameters(NA=30, NB=34, bnum=5)

    def test_bnum_bounded_by_na(self):
        with pytest.raises(ValueError):
            SimulationParameters(NA=100, NB=4, bnum=200)

    def test_type_check(self):
        with pytest.raises(TypeError):
            SimulationParameters(Nkz=3.5)  # type: ignore[arg-type]

    def test_table1_ranges_cover_paper_structures(self):
        for name, (lo, hi) in PARAMETER_RANGES.items():
            v = getattr(PAPER_STRUCTURE_4864, name)
            assert lo <= v <= hi


class TestDerived:
    def test_block_size(self):
        p = PAPER_STRUCTURE_4864
        assert p.block_size == pytest.approx(4864 * 12 / 19)

    def test_electron_tensor_elements(self):
        p = SimulationParameters(Nkz=2, Nqz=2, NE=10, Nw=3, NA=100, NB=4, Norb=3)
        assert p.electron_gf_elements == 2 * 10 * 100 * 9

    def test_phonon_tensor_elements(self):
        p = SimulationParameters(Nkz=2, Nqz=2, NE=10, Nw=3, NA=100, NB=4, Norb=3)
        assert p.phonon_gf_elements == 2 * 3 * 100 * 5 * 9

    def test_bytes_are_16x_elements(self):
        p = PAPER_STRUCTURE_4864
        assert p.electron_gf_bytes == 16 * p.electron_gf_elements

    def test_replace(self):
        p = PAPER_STRUCTURE_4864.replace(Nkz=3, Nqz=3)
        assert p.Nkz == 3 and p.NA == 4864

    def test_as_dict_roundtrip(self):
        p = PAPER_STRUCTURE_4864
        assert SimulationParameters(**p.as_dict()) == p

    def test_paper_presets(self):
        assert PAPER_STRUCTURE_4864.NA == 4864
        assert PAPER_STRUCTURE_10240.NA == 10240
        assert PAPER_STRUCTURE_10240.Nkz == 21


#: environment variables that used to override a default; each is now set
#: only by the argument named in the README migration table
_REMOVED_ENV = {
    "REPRO_RGF_KERNEL": "cublas",
    "REPRO_RUNTIME": "cluster",
    "REPRO_SDFG_BACKEND": "fortran",
    "REPRO_SERVICE_MODE": "fiber",
    "REPRO_SERVICE_CAPACITY": "-1",
    "REPRO_SERVICE_CACHE": "many",
    "REPRO_AUTOTUNE_STRATEGY": "nope",
    "REPRO_AUTOTUNE_BEAM_WIDTH": "0",
    "REPRO_AUTOTUNE_ESCAPE_DEPTH": "x",
}


@pytest.mark.parametrize("name, garbage", _REMOVED_ENV.items())
def test_removed_env_names_are_inert(monkeypatch, name, garbage):
    """The ambient environment cannot change what a ``Workload`` means:
    garbage in a retired variable neither raises nor moves a default."""
    from repro.api import compile_workload, scenario
    from repro.autotune import SearchConfig
    from repro.negf import SCBASettings
    from repro.sdfg import get_backend

    monkeypatch.delenv("REPRO_AUTOTUNE_MAX_MOVES", raising=False)
    monkeypatch.setenv(name, garbage)

    settings = SCBASettings()
    assert (settings.rgf_kernel, settings.runtime, settings.sse_backend) == (
        "numpy", "serial", None,
    )
    plan = compile_workload(scenario("quickstart"))
    assert (plan.rgf_kernel, plan.runtime) == ("numpy", "serial")
    assert get_backend().name == "numpy"
    assert SearchConfig().resolved().max_moves == 24
    assert AUTOTUNE_STRATEGIES == ("greedy",)
