import json

from perfbench import inputs


def test_same_seed_gives_byte_identical_inputs():
    for make in (inputs.compile_suite, inputs.fig19_sweep,
                 lambda seed: inputs.service_mix(seed, length=300)):
        first = json.dumps(make(7), sort_keys=True)
        assert first == json.dumps(make(7), sort_keys=True)
        assert inputs.digest(make(7)) == inputs.digest(make(7))


def test_seeds_change_the_inputs():
    assert inputs.digest(inputs.compile_suite(1)) != \
        inputs.digest(inputs.compile_suite(2))
    assert inputs.digest(inputs.service_mix(1, length=300)) != \
        inputs.digest(inputs.service_mix(2, length=300))
    orders = {tuple(inputs.fig19_sweep(seed)["kernels"])
              for seed in range(20)}
    assert len(orders) > 1


def test_compile_suite_covers_every_kernel_and_level():
    from repro.programs import all_kernels
    items = inputs.compile_suite(3)
    assert sorted((item["kernel"], item["level"]) for item in items) == \
        sorted((kernel.name, level) for kernel in all_kernels()
               for level in inputs.LEVELS)


def test_fig19_orders_the_cheap_kernels():
    for seed in range(10):
        kernels = inputs.fig19_sweep(seed)["kernels"]
        assert sorted(kernels) == sorted(inputs.FIG19_KERNELS)


def test_service_mix_shape():
    streams = inputs.service_mix(5, length=2000, lanes=2)
    assert [len(stream) for stream in streams] == [2000, 2000]
    salts = set()
    for stream in streams:
        fresh = []
        for request in stream:
            if request["mix"] == "fresh":
                fresh.append(request)
            elif request["mix"] == "repeat":
                copy = dict(request, mix="fresh")
                assert copy in fresh
            else:
                assert request["salt"] != 0
                salts.add((request["salt"], request["level"]))
        mixes = {request["mix"] for request in stream}
        assert mixes == {"fresh", "repeat", "variant"}
    variant_requests = sum(request["mix"] == "variant"
                           for stream in streams for request in stream)
    assert len(salts) == variant_requests      # never seen twice
    requests = [request for stream in streams for request in stream]
    for kind, share in inputs.request_shares().items():
        measured = sum(r["mix"] == kind for r in requests) / len(requests)
        assert abs(measured - share) < 0.02, kind


def test_variant_source_differs_from_template():
    source = inputs.variant_source("dot", 1000001)
    assert source != inputs.SERVICE_TEMPLATES["dot"]
    assert "1000001" in source
