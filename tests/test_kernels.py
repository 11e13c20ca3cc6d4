"""Pluggable RGF kernels: registry, oracle equivalence, engine/plan wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RGF_KERNELS
from repro.negf import (
    KernelError,
    RGFKernel,
    SCBASettings,
    SCBASimulation,
    available_kernels,
    block_offsets,
    build_device,
    build_hamiltonian_model,
    dense_reference,
    get_kernel,
    register_kernel,
    rgf_solve,
    rgf_solve_batched,
    sancho_rubio_batched,
    select_strategy,
)
from repro.negf.kernels import _REGISTRY
from repro.negf.kernels.csrmm import CsrmmKernel
from repro.negf.kernels.numpy_opt import NumpyKernel
from repro.negf.kernels.reference import ReferenceKernel
from repro.negf.sparse_kernels import generate_rgf_operands

from test_engine import stacked_random_system
from test_rgf_boundary import random_system


def sparse_stacked_system(batch, sizes, density=0.05, seed=0):
    """Stacked system with *sparse* coupling blocks (one shared pattern)."""
    diag, upper, sless = stacked_random_system(batch, sizes, seed=seed)
    rng = np.random.default_rng(seed + 99)
    for i, u in enumerate(upper):
        mask = rng.random(u.shape[-2:]) < density
        mask.flat[0] = True  # never fully empty
        upper[i] = u * mask
    return diag, upper, sless


class TestKernelRegistry:
    def test_builtins_registered(self):
        names = available_kernels()
        for k in ("reference", "numpy", "csrmm"):
            assert k in names
        # Every registered name is part of the config-level tuple (custom
        # registrations below are cleaned up by their own tests).
        for k in names:
            assert k in RGF_KERNELS

    def test_numba_registered_iff_importable(self):
        try:
            import numba  # noqa: F401

            assert "numba" in available_kernels()
        except ImportError:
            assert "numba" not in available_kernels()

    def test_default_kernel(self):
        assert SCBASettings().rgf_kernel == "numpy"
        assert isinstance(get_kernel(), NumpyKernel)

    def test_get_kernel_by_name(self):
        assert isinstance(get_kernel("reference"), ReferenceKernel)
        assert isinstance(get_kernel("numpy"), NumpyKernel)
        assert isinstance(get_kernel("csrmm"), CsrmmKernel)

    def test_get_kernel_passthrough_instance(self):
        k = CsrmmKernel(strategy="dense")
        assert get_kernel(k) is k

    def test_get_kernel_unknown_raises(self):
        with pytest.raises(KernelError, match="unknown RGF kernel"):
            get_kernel("cublas")

    def test_missing_numba_message(self):
        if "numba" in available_kernels():
            pytest.skip("numba installed: the kernel is available")
        with pytest.raises(KernelError, match="optional numba package"):
            get_kernel("numba")

    def test_custom_registration(self):
        class MyKernel(ReferenceKernel):
            name = "mine"

        register_kernel("mine", MyKernel)
        try:
            assert "mine" in available_kernels()
            assert isinstance(get_kernel("mine"), MyKernel)
        finally:
            del _REGISTRY["mine"]

    def test_kernel_error_is_value_error(self):
        assert issubclass(KernelError, ValueError)
        assert isinstance(RGFKernel(), RGFKernel)


def all_kernel_names():
    return list(available_kernels())


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", all_kernel_names())
    def test_matches_reference_mixed_blocks(self, name):
        sizes = [3, 6, 4, 5]
        diag, upper, sless = stacked_random_system(3, sizes, seed=11)
        ref = get_kernel("reference").solve(diag, upper, sless)
        res = get_kernel(name).solve(diag, upper, sless)
        for attr in ("GR", "Gl", "Gg"):
            for a, b in zip(getattr(ref, attr), getattr(res, attr)):
                assert np.abs(a - b).max() < 1e-10

    @given(
        nblocks=st.integers(1, 4),
        batch=st.integers(1, 4),
        shared_upper=st.booleans(),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_all_kernels_match_dense(
        self, nblocks, batch, shared_upper, seed
    ):
        """Satellite: mixed block sizes + broadcast 2-D couplings, every
        kernel against the dense ground truth."""
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(1, 6, size=nblocks)]
        diag, upper, sless = stacked_random_system(batch, sizes, seed=seed)
        if shared_upper:  # ω-independent couplings broadcast across batch
            upper = [u[0] for u in upper]
        offs = block_offsets([d[0] for d in diag])
        dense = [
            dense_reference(
                [d[b] for d in diag],
                [u[b] if u.ndim == 3 else u for u in upper],
                [s[b] for s in sless],
            )
            for b in range(batch)
        ]
        for name in available_kernels():
            res = get_kernel(name).solve(diag, upper, sless)
            for b in range(batch):
                GRd, Gld = dense[b]
                for i in range(nblocks):
                    sl = slice(offs[i], offs[i + 1])
                    assert np.abs(res.GR[i][b] - GRd[sl, sl]).max() < 1e-10
                    assert np.abs(res.Gl[i][b] - Gld[sl, sl]).max() < 1e-10

    @pytest.mark.parametrize("name", all_kernel_names())
    def test_retarded_only(self, name):
        diag, upper, _ = stacked_random_system(2, [3, 4], seed=2)
        res = get_kernel(name).solve(diag, upper)
        ref = get_kernel("reference").solve(diag, upper)
        assert res.Gl == [] and res.Gg == []
        assert np.abs(res.GR[0] - ref.GR[0]).max() < 1e-10

    def test_serial_is_batch_of_one_reference(self):
        """rgf_solve is bit-identical to the batch-of-1 reference kernel."""
        diag, upper, sless = random_system([3, 5, 4], seed=4)
        serial = rgf_solve(diag, upper, sless)
        batched = rgf_solve_batched(
            [d[None] for d in diag],
            [u[None] for u in upper],
            [s[None] for s in sless],
            kernel="reference",
        ).point(0)
        for attr in ("GR", "Gl", "Gg"):
            for a, b in zip(getattr(serial, attr), getattr(batched, attr)):
                assert np.array_equal(a, b)

    def test_validation_messages_preserved(self):
        diag, upper, sless = stacked_random_system(2, [3, 3], seed=0)
        for name in available_kernels():
            k = get_kernel(name)
            with pytest.raises(ValueError, match="expected 1 upper blocks"):
                k.solve(diag, [], sless)
            with pytest.raises(ValueError, match="one block per diagonal"):
                k.solve(diag, upper, sless[:1])
            with pytest.raises(ValueError, match=r"diag\[0\] must be"):
                k.solve([d[0] for d in diag], [u[0] for u in upper], None)

    def test_invert_matches_solve(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        a = a + 5 * np.eye(5)
        eye = np.broadcast_to(np.eye(5, dtype=np.complex128), a.shape)
        expect = np.linalg.solve(a, eye)
        for name in available_kernels():
            assert np.array_equal(get_kernel(name).invert(a), expect)

    def test_boundary_invert_routing_bit_exact(self, small_model):
        """sancho_rubio_batched through a kernel's invert seam returns the
        same bits as the plain path (all shipped kernels keep solve(A, I))."""
        H = small_model.hamiltonian_blocks(0.2)
        S = small_model.overlap_blocks(0.2)
        z = np.linspace(-0.5, 0.5, 4)
        plain = sancho_rubio_batched(
            z, H.diag[0], H.upper[0], S.diag[0], S.upper[0], eta=1e-5
        )
        for name in available_kernels():
            routed = sancho_rubio_batched(
                z, H.diag[0], H.upper[0], S.diag[0], S.upper[0],
                eta=1e-5, kernel=name,
            )
            assert np.array_equal(routed, plain)


class TestCsrmmKernel:
    def test_select_strategy_thresholds(self):
        assert select_strategy(768, 0.02) == "csrmm"
        assert select_strategy(16, 0.02) == "dense"  # too small
        assert select_strategy(768, 0.5) == "dense"  # too dense
        assert select_strategy(48, 0.08) == "csrmm"  # at the boundary

    def test_invalid_strategy_raises(self):
        with pytest.raises(ValueError, match="fold strategy"):
            CsrmmKernel(strategy="cusparse")

    @pytest.mark.parametrize("strategy", ["auto", "dense", "csrmm", "csrgemm"])
    def test_forced_strategies_match_reference(self, strategy):
        diag, upper, sless = sparse_stacked_system(2, [64, 64, 64], seed=5)
        ref = get_kernel("reference").solve(diag, upper, sless)
        k = CsrmmKernel(strategy=strategy)
        res = k.solve(diag, upper, sless)
        for a, b in zip(ref.Gl, res.Gl):
            assert np.abs(a - b).max() < 1e-10

    def test_auto_plan_takes_sparse_path(self):
        diag, upper, sless = sparse_stacked_system(
            2, [64, 64, 64], density=0.04, seed=5
        )
        k = CsrmmKernel()
        k.solve(diag, upper, sless)
        assert len(k.last_plan) == 2
        for size, density, strat in k.last_plan:
            assert size == 64 and density <= 0.08 and strat == "csrmm"

    def test_auto_plan_keeps_small_blocks_dense(self):
        diag, upper, sless = stacked_random_system(2, [4, 4, 4], seed=1)
        k = CsrmmKernel()
        k.solve(diag, upper, sless)
        assert all(strat == "dense" for _, _, strat in k.last_plan)

    def test_interface_support_projection(self):
        """Structured interface couplings (last layer -> first layer)
        trigger the thin-support backward projection and still match the
        reference to <= 1e-10."""
        from repro.negf.kernels.csrmm import SparseCoupling

        rng = np.random.default_rng(7)
        n = 64
        diag, upper, sless = stacked_random_system(2, [n, n, n], seed=7)
        mask = np.zeros((n, n), dtype=bool)
        mask[-n // 4:, : n // 4] = rng.random((n // 4, n // 4)) < 0.5
        mask[-1, 0] = True
        upper = [u * mask for u in upper]

        c = SparseCoupling(upper[0], "csrmm", 0.0)
        assert c.projected
        assert c.rsup.size <= n // 4 and c.csup.size <= n // 4

        ref = get_kernel("reference").solve(diag, upper, sless)
        res = CsrmmKernel(strategy="csrmm").solve(diag, upper, sless)
        for attr in ("GR", "Gl", "Gg"):
            for a, b in zip(getattr(ref, attr), getattr(res, attr)):
                assert np.abs(a - b).max() < 1e-10

    def test_dense_support_disables_projection(self):
        from repro.negf.kernels.csrmm import SparseCoupling

        rng = np.random.default_rng(3)
        u = (rng.random((32, 32)) < 0.1).astype(complex)  # scattered support
        c = SparseCoupling(u, "csrmm", 0.1)
        assert not c.projected

    def test_shared_pattern_2d_coupling(self):
        """ω-independent 2-D sparse couplings build one CSR per block."""
        diag, upper, sless = sparse_stacked_system(3, [64, 64], seed=8)
        shared = [u[0] for u in upper]
        ref = get_kernel("reference").solve(diag, shared, sless)
        res = CsrmmKernel(strategy="csrmm").solve(diag, shared, sless)
        for a, b in zip(ref.Gl, res.Gl):
            assert np.abs(a - b).max() < 1e-10


class TestNumbaKernel:
    def test_constructor_raises_without_numba(self):
        from repro.negf.kernels.compiled import HAVE_NUMBA, NumbaKernel

        if HAVE_NUMBA:
            pytest.skip("numba installed: constructor must succeed")
        with pytest.raises(KernelError, match="optional numba package"):
            NumbaKernel()

    def test_uniform_blocks_match_reference(self):
        pytest.importorskip("numba")
        diag, upper, sless = stacked_random_system(3, [5, 5, 5, 5], seed=9)
        ref = get_kernel("reference").solve(diag, upper, sless)
        res = get_kernel("numba").solve(diag, upper, sless)
        for attr in ("GR", "Gl", "Gg"):
            for a, b in zip(getattr(ref, attr), getattr(res, attr)):
                assert np.abs(a - b).max() < 1e-10

    def test_mixed_blocks_delegate(self):
        pytest.importorskip("numba")
        diag, upper, sless = stacked_random_system(2, [3, 5, 4], seed=9)
        ref = get_kernel("reference").solve(diag, upper, sless)
        res = get_kernel("numba").solve(diag, upper, sless)
        for a, b in zip(ref.Gl, res.Gl):
            assert np.abs(a - b).max() < 1e-10


class TestOperandGeneration:
    def test_operands_are_genuinely_complex(self):
        """Satellite fix: E used to be cast to complex with a zero
        imaginary part; all three operands must now be fully complex."""
        F, gR, E = generate_rgf_operands(n=96, block_density=0.05, seed=3)
        for name, arr in (("F", F.toarray()), ("gR", gR), ("E", E.toarray())):
            assert np.abs(arr.real).max() > 0, name
            assert np.abs(arr.imag).max() > 0, name
        # the sparse operands stay sparse after the complex fix
        assert F.nnz < 0.15 * 96 * 96
        assert E.nnz < 0.15 * 96 * 96


@pytest.fixture(scope="module")
def sim_factory():
    dev = build_device(nx_cols=6, ny_rows=3, NB=4, slab_width=2)
    model = build_hamiltonian_model(dev, Norb=2)

    def make(**kwargs):
        defaults = dict(
            NE=8, Nkz=2, Nqz=2, Nw=2, e_min=-1.2, e_max=1.2,
            mu_left=0.2, mu_right=-0.2, eta=1e-4,
            coupling=0.25, mixing=0.6, max_iterations=4, tolerance=1e-12,
        )
        defaults.update(kwargs)
        return SCBASimulation(model, SCBASettings(**defaults))

    return make


class TestEngineKernelEquivalence:
    @pytest.mark.parametrize("kernel", all_kernel_names())
    def test_scba_matches_serial(self, sim_factory, kernel):
        ref = sim_factory(engine="serial").run()
        res = sim_factory(engine="batched", rgf_kernel=kernel).run()
        assert res.iterations == ref.iterations
        for name in ("Gl", "Gg", "Dl", "Dg", "Sigma_l", "Sigma_g",
                     "current_left", "current_right", "dissipation"):
            diff = np.abs(getattr(res, name) - getattr(ref, name)).max()
            assert diff < 1e-10, f"kernel={kernel}.{name} deviates by {diff}"

    @pytest.mark.parametrize("kernel", all_kernel_names())
    def test_ballistic_matches_serial(self, sim_factory, kernel):
        ref = sim_factory(engine="serial").run(ballistic=True)
        res = sim_factory(engine="batched", rgf_kernel=kernel).run(
            ballistic=True
        )
        for name in ("Gl", "Gg", "current_left", "current_right"):
            diff = np.abs(getattr(res, name) - getattr(ref, name)).max()
            assert diff < 1e-10, f"kernel={kernel}.{name} deviates by {diff}"

    @pytest.mark.parametrize("kernel", all_kernel_names())
    def test_distributed_runtime_matches_serial(self, sim_factory, kernel):
        """The kernel setting flows to the runtime ranks' engines."""
        ref = sim_factory(engine="serial").run()
        res = sim_factory(
            engine="batched", rgf_kernel=kernel, runtime="sim"
        ).run()
        for name in ("Gl", "Gg", "current_left", "dissipation"):
            diff = np.abs(getattr(res, name) - getattr(ref, name)).max()
            assert diff < 1e-10, f"kernel={kernel}.{name} deviates by {diff}"

    def test_serial_engine_pins_reference(self, sim_factory):
        sim = sim_factory(engine="serial", rgf_kernel="csrmm")
        assert sim.engine.kernel.name == "reference"

    def test_batched_engine_uses_setting(self, sim_factory):
        sim = sim_factory(engine="batched", rgf_kernel="csrmm")
        assert isinstance(sim.engine.kernel, CsrmmKernel)

    def test_unknown_kernel_raises_at_engine_build(self, sim_factory):
        with pytest.raises(KernelError, match="unknown RGF kernel"):
            sim_factory(engine="batched", rgf_kernel="cublas")


class TestPlanWiring:
    @pytest.fixture()
    def workload(self):
        from repro.api import DeviceSpec, GridSpec, PhysicsSpec, Workload

        return Workload(
            name="kernel-wire",
            device=DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
            grid=GridSpec(NE=6, Nkz=2, Nqz=2, Nw=2, e_min=-1.2, e_max=1.2),
            physics=PhysicsSpec(max_iterations=2),
        )

    def test_plan_carries_kernel(self, workload):
        from repro.api import compile_workload

        plan = compile_workload(workload, rgf_kernel="csrmm")
        assert plan.rgf_kernel == "csrmm"
        assert "rgf_kernel=csrmm" in plan.describe()
        assert plan.to_dict()["rgf_kernel"] == "csrmm"
        for g in plan.groups:
            assert g.base_settings["rgf_kernel"] == "csrmm"

    def test_plan_default_is_heuristic(self, workload):
        from repro.api import choose_rgf_kernel, compile_workload

        plan = compile_workload(workload)
        assert plan.rgf_kernel == choose_rgf_kernel(workload.device)
        assert plan.rgf_kernel == "numpy"  # small blocks -> dense kernel

    def test_heuristic_picks_csrmm_for_large_sparse(self):
        from repro.api import DeviceSpec, choose_rgf_kernel

        big = DeviceSpec(
            nx_cols=16, ny_rows=8, NB=4, slab_width=4, Norb=4
        )  # block = 128, coupling density 1/128
        assert choose_rgf_kernel(big) == "csrmm"

    def test_unknown_kernel_raises_at_compile(self, workload):
        from repro.api import PlanError, compile_workload

        with pytest.raises(PlanError, match="unknown rgf_kernel"):
            compile_workload(workload, rgf_kernel="cublas")

    def test_unavailable_numba_raises_at_compile(self, workload):
        from repro.api import PlanError, compile_workload

        if "numba" in available_kernels():
            pytest.skip("numba installed: compile must succeed")
        with pytest.raises(PlanError, match="numba"):
            compile_workload(workload, rgf_kernel="numba")

    def test_run_result_reports_kernel(self, workload):
        from repro.api import Session, compile_workload

        plan = compile_workload(workload, rgf_kernel="numpy")
        with Session(plan) as session:
            sweep = session.run(keep_arrays=False)
        assert all(r.rgf_kernel == "numpy" for r in sweep.runs)
        d = sweep.runs[0].to_dict()
        assert d["rgf_kernel"] == "numpy"
        from repro.api import RunResult

        assert RunResult.from_dict(d).rgf_kernel == "numpy"
