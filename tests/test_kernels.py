"""RGF kernels: oracle equivalence, coupling support, engine/plan wiring."""

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
    block_offsets,
    build_device,
    build_hamiltonian_model,
    dense_reference,
    get_kernel,
    rgf_solve,
    rgf_solve_batched,
)
from repro.negf.kernels.numpy_opt import Coupling, NumpyKernel
from repro.negf.kernels.reference import ReferenceKernel
from repro.negf.rgf import interface_support
from repro.negf.sparse_kernels import generate_rgf_operands

from test_engine import stacked_random_system
from test_rgf_boundary import random_system

#: removed kernel names: they fail like any other unknown name
UNKNOWN_KERNELS = ["cublas", "csrmm", "numba"]

#: coupling support patterns: which side of the kernel's one rule
#: (support <= half of both dimensions -> a sub-block) each lands on
SUPPORT_PATTERNS = {
    "full": False, "corner": True, "scattered": False, "zero": True,
}


def support_mask(pattern, n, m, rng):
    """Nonzero pattern of one ``n x m`` coupling block."""
    mask = np.zeros((n, m), dtype=bool)
    if pattern == "full":
        mask[:] = True
    elif pattern == "corner":  # last rows x first columns, <= half of each
        mask[n - n // 2:, : m // 2] = True
    elif pattern == "scattered":  # sparse, but every row is in the support
        mask[np.arange(n), rng.integers(m, size=n)] = True
    return mask


class TestKernelRegistry:
    def test_builtins_registered(self):
        assert RGF_KERNELS == ("reference", "numpy")
        for k in RGF_KERNELS:
            assert get_kernel(k).name == k

    def test_default_kernel(self):
        assert SCBASettings().rgf_kernel == "numpy"
        assert isinstance(get_kernel(), NumpyKernel)

    def test_get_kernel_by_name(self):
        assert isinstance(get_kernel("reference"), ReferenceKernel)
        assert isinstance(get_kernel("numpy"), NumpyKernel)

    def test_get_kernel_passthrough_instance(self):
        k = NumpyKernel()
        assert get_kernel(k) is k

    @pytest.mark.parametrize("name", UNKNOWN_KERNELS)
    def test_get_kernel_unknown_raises(self, name):
        with pytest.raises(KernelError, match="unknown RGF kernel"):
            get_kernel(name)

    def test_kernel_error_is_value_error(self):
        assert issubclass(KernelError, ValueError)
        assert isinstance(RGFKernel(), RGFKernel)


def all_kernel_names():
    return list(RGF_KERNELS)


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
        patterns=st.lists(
            st.sampled_from(sorted(SUPPORT_PATTERNS)), min_size=3, max_size=3
        ),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_all_kernels_match_dense(
        self, nblocks, batch, shared_upper, patterns, seed
    ):
        """Mixed block sizes (non-square couplings), broadcast 2-D and
        per-energy 3-D couplings, one support pattern per coupling block
        (all-zero included): every kernel against the dense ground
        truth, and each pattern on its side of the support rule."""
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(1, 9, size=nblocks)]
        diag, upper, sless = stacked_random_system(batch, sizes, seed=seed)
        for i, u in enumerate(upper):
            upper[i] = u * support_mask(patterns[i], *u.shape[-2:], rng)
            thin = Coupling(upper[i]).r != slice(None)
            assert thin == SUPPORT_PATTERNS[patterns[i]]
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
        for name in RGF_KERNELS:
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
        for name in RGF_KERNELS:
            k = get_kernel(name)
            with pytest.raises(ValueError, match="expected 1 upper blocks"):
                k.solve(diag, [], sless)
            with pytest.raises(ValueError, match="one block per diagonal"):
                k.solve(diag, upper, sless[:1])
            with pytest.raises(ValueError, match=r"diag\[0\] must be"):
                k.solve([d[0] for d in diag], [u[0] for u in upper], None)


class TestCouplingSupport:
    def test_interface_support_projection(self):
        """Structured interface couplings (last layer -> first layer)
        are contracted over their thin support and still match the
        reference to <= 1e-10."""
        rng = np.random.default_rng(7)
        n = 64
        diag, upper, sless = stacked_random_system(2, [n, n, n], seed=7)
        mask = np.zeros((n, n), dtype=bool)
        mask[-n // 4:, : n // 4] = rng.random((n // 4, n // 4)) < 0.5
        mask[-1, 0] = True
        upper = [u * mask for u in upper]

        c = Coupling(upper[0])
        assert c.r.start >= n - n // 4 and c.r.stop == n
        assert c.c.start == 0 and c.c.stop <= n // 4
        assert np.array_equal(c.V, upper[0][:, c.r, c.c])

        ref = get_kernel("reference").solve(diag, upper, sless)
        res = NumpyKernel().solve(diag, upper, sless)
        for attr in ("GR", "Gl", "Gg"):
            for a, b in zip(getattr(ref, attr), getattr(res, attr)):
                assert np.abs(a - b).max() < 1e-10

    @pytest.mark.parametrize(
        "rows, cols, support",
        [
            ([5, 6, 7], [0, 1], (slice(5, 8), slice(0, 2))),  # contiguous
            ([1, 4], [0, 2], (slice(1, 5), slice(0, 3))),  # bounding range
            ([], [], (slice(0, 0), slice(0, 0))),  # all-zero coupling
            (list(range(9)), [0], (slice(None), slice(None))),  # > half
            ([0, 15], [0], (slice(None), slice(None))),  # range > half
        ],
    )
    def test_support_rule_branches(self, rows, cols, support):
        u = np.zeros((2, 16, 8), dtype=complex)
        u[:, rows, cols[:1]] = 1.0
        u[:, rows[:1], cols] = 1.0
        assert interface_support(u) == support

    def test_dense_support_disables_projection(self):
        rng = np.random.default_rng(3)
        u = (rng.random((32, 32)) < 0.1).astype(complex)  # scattered support
        c = Coupling(u)
        assert c.r == slice(None) and c.c == slice(None)
        assert c.V.shape == u.shape

    @pytest.mark.parametrize("slab_width", [1, 2, 4])
    def test_device_couplings_live_on_interface_layer(self, slab_width):
        """Every H, E·S−H and Φ coupling of a generated device is nonzero
        exactly on (last layer of slab n) x (first layer of slab n+1) —
        the whole block at slab_width 1 — and the batched production run
        matches the serial oracle on each."""
        dev = build_device(nx_cols=8, ny_rows=3, NB=6, slab_width=slab_width)
        model = build_hamiltonian_model(dev, Norb=2)
        H, S = model.hamiltonian_blocks(0.3), model.overlap_blocks(0.3)
        E = np.linspace(-1.0, 1.0, 3)[:, None, None]
        couplings = (
            H.upper
            + [E * s[None] - h[None] for h, s in zip(H.upper, S.upper)]
            + model.dynamical_blocks(0.3).upper
        )
        assert len(couplings) == 3 * (dev.bnum - 1)
        for u in couplings:
            c = Coupling(u)
            n, m = u.shape[-2:]
            if slab_width == 1:
                assert c.r == slice(None) and c.c == slice(None)
            else:
                layer_r, layer_c = n // slab_width, m // slab_width
                assert c.r == slice(n - layer_r, n)
                assert c.c == slice(0, layer_c)

        controls = dict(
            NE=6, Nkz=1, Nqz=1, Nw=2, e_min=-1.2, e_max=1.2, eta=1e-4,
            coupling=0.25, max_iterations=2, tolerance=1e-12,
        )
        ref = SCBASimulation(model, SCBASettings(engine="serial", **controls)).run()
        res = SCBASimulation(model, SCBASettings(engine="batched", **controls)).run()
        for name in ("Gl", "Gg", "Dl", "Dg", "current_left", "dissipation"):
            diff = np.abs(getattr(res, name) - getattr(ref, name)).max()
            assert diff < 1e-10, f"slab_width={slab_width}.{name}: {diff}"


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
        sim = sim_factory(engine="serial", rgf_kernel="numpy")
        assert sim.engine.kernel.name == "reference"

    def test_batched_engine_uses_setting(self, sim_factory):
        sim = sim_factory(engine="batched", rgf_kernel="reference")
        assert isinstance(sim.engine.kernel, ReferenceKernel)

    @pytest.mark.parametrize("name", UNKNOWN_KERNELS)
    def test_unknown_kernel_raises_at_engine_build(self, sim_factory, name):
        with pytest.raises(KernelError, match="unknown RGF kernel"):
            sim_factory(engine="batched", rgf_kernel=name)


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
        from repro.api import PlanError, compile_workload

        plan = compile_workload(workload, rgf_kernel="reference")
        assert plan.rgf_kernel == "reference"
        assert "rgf_kernel=reference" in plan.describe()
        assert plan.to_dict()["rgf_kernel"] == "reference"
        for g in plan.groups:
            assert g.base_settings["rgf_kernel"] == "reference"
        # the serial engine runs the reference recursion whatever the
        # setting says: a plan must not report a kernel the run ignores
        with pytest.raises(PlanError, match="rgf_kernel='numpy'.*engine='serial'"):
            compile_workload(workload, engine="serial", rgf_kernel="numpy")

    def test_plan_default_kernel(self, workload):
        from repro.api import compile_workload

        assert compile_workload(workload).rgf_kernel == "numpy"
        serial = compile_workload(workload, engine="serial")
        assert serial.rgf_kernel == "reference"
        assert "serial (rgf_kernel=reference" in serial.describe()
        explicit = compile_workload(
            workload, engine="serial", rgf_kernel="reference"
        )
        assert explicit.rgf_kernel == "reference"

    @pytest.mark.parametrize("name", UNKNOWN_KERNELS)
    def test_unknown_kernel_raises_at_compile(self, workload, name):
        from repro.api import PlanError, compile_workload

        with pytest.raises(PlanError, match="unknown rgf_kernel"):
            compile_workload(workload, rgf_kernel=name)
        with pytest.raises(PlanError, match="unknown rgf_kernel"):
            compile_workload(workload, engine="serial", rgf_kernel=name)

    def test_run_result_reports_kernel(self, workload):
        """The reported kernel is the one the engine ran, per engine."""
        from repro.api import RunResult, Session, compile_workload

        for engine, kernel in (("batched", "numpy"), ("serial", "reference")):
            plan = compile_workload(workload, engine=engine)
            with Session(plan) as session:
                sweep = session.run(keep_arrays=False)
                assert session.simulation(0).engine.kernel.name == kernel
            assert all(r.rgf_kernel == kernel for r in sweep.runs)
            d = sweep.runs[0].to_dict()
            assert d["rgf_kernel"] == kernel
            assert RunResult.from_dict(d).rgf_kernel == kernel
