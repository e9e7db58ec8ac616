"""Golden delivery order: packet hops must keep their exact event order.

The sequences below were recorded from the process-per-hop link model
(a pump process per link, one process per propagating packet and per
loopback datagram).  Any change to how a hop is scheduled must
reproduce them bit for bit: ``(sim time, host, payload)`` of every
delivery, in order, and the set of dropped datagrams.  Ties at the
same simulated instant are the point of the star world: eight
equal-size datagrams finish serialization at the same time, so only
the kernel's insertion order decides who is delivered first.
"""

from repro.net import Link, Network, Packet
from repro.simkernel import Environment

PORT = 9


def _receiver(env, host, sock, log, on_datagram=None):
    while True:
        payload, source = yield sock.recv()
        log.append((env.now, host, payload))
        if on_datagram is not None:
            on_datagram(payload, source)


def star_world():
    """Eight devices send two equal-size datagrams each to a hub at t=0;
    the hub echoes each one back and loops a copy to itself."""
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("hub")
    devices = [f"d{i}" for i in range(8)]
    for name in devices:
        net.add_host(name)
        net.connect(name, "hub", bandwidth_bps=1e6, latency_s=0.01)
    log = []
    hub = net.hosts["hub"].udp_socket(PORT)

    def hub_reply(payload, source):
        if payload.startswith((b"echo", b"loop")):
            return
        hub.sendto(b"echo:" + payload, source)
        hub.sendto(b"loop:" + payload, ("hub", PORT))

    env.process(_receiver(env, "hub", hub, log, hub_reply), name="hub-rx")
    for name in devices:
        sock = net.hosts[name].udp_socket(PORT)
        env.process(_receiver(env, name, sock, log), name=f"{name}-rx")

        def send(sock=sock, name=name):
            for k in range(2):
                sock.sendto(f"{name}/{k}".encode().ljust(32, b"."), ("hub", PORT))
            yield env.timeout(0)

        env.process(send(), name=f"{name}-tx")
    env.run()
    return log


def wan_fog_world():
    """Four edge hosts reach the cloud over two hops; the fog→cloud hop
    has jitter, uniform loss and Gilbert-Elliott burst loss."""
    env = Environment()
    net = Network(env, seed=11)
    net.add_host("cloud")
    net.add_host("fog")
    net.connect("fog", "cloud", bandwidth_bps=100e6, latency_s=0.08,
                jitter_s=0.004, loss=0.05)
    net.configure_link("fog", "cloud", burst_loss=0.6, p_enter_burst=0.1,
                       p_exit_burst=0.3)
    edges = [f"edge-{i}" for i in range(4)]
    for name in edges:
        net.add_host(name)
        net.connect(name, "fog", bandwidth_bps=1e9, latency_s=0.0005)
    log = []
    cloud = net.hosts["cloud"].udp_socket(PORT)
    env.process(_receiver(env, "cloud", cloud, log), name="cloud-rx")
    sent = []
    for name in edges:
        sock = net.hosts[name].udp_socket()

        def send(sock=sock, name=name):
            for k in range(25):
                payload = f"{name}/{k}".encode()
                sent.append(payload)
                sock.sendto(payload, ("cloud", PORT))
                yield env.timeout(0.002)

        env.process(send(), name=f"{name}-tx")
    env.run()
    delivered = {payload for _, _, payload in log}
    return log, sorted(set(sent) - delivered)


def _packet(tag: str) -> Packet:
    # 972 payload bytes + 28 header = 1000 bytes = 1 s at 8 kbit/s
    return Packet(src=("a", 1), dst=("b", 2), protocol="udp",
                  payload=tag.encode().ljust(972, b"."))


def test_star_fan_in_with_loopback_keeps_golden_order():
    assert star_world() == STAR_GOLDEN


def test_two_hop_lossy_wan_fog_keeps_golden_order_and_drops():
    log, dropped = wan_fog_world()
    assert log == WAN_FOG_GOLDEN
    assert dropped == WAN_FOG_DROPPED


def test_partition_drops_the_packet_in_serialization_not_the_one_in_flight():
    env = Environment()
    link = Link(env, "a", "b", bandwidth_bps=8000.0, latency_s=1.0)
    delivered = []

    def script():
        for tag in ("A", "B"):
            link.send(_packet(tag), lambda p: delivered.append((env.now, p.payload[:1])))
        yield env.timeout(1.5)  # A propagating (1..2), B serializing (1..2)
        link.partition()
        yield env.timeout(1.5)
        link.heal()
        link.send(_packet("C"), lambda p: delivered.append((env.now, p.payload[:1])))

    env.process(script(), name="script")
    env.run()
    assert delivered == [(2.0, b"A"), (5.0, b"C")]
    assert link.dropped.count == 1


def test_configure_applies_to_packets_not_yet_on_the_wire():
    env = Environment()
    link = Link(env, "a", "b", bandwidth_bps=8000.0, latency_s=0.0)
    delivered = []
    queued = []

    def script():
        for tag in ("A", "B"):
            link.send(_packet(tag), lambda p: delivered.append((env.now, p.payload[:1])))
        queued.append(link.queued_packets)  # B waits; A is being serialized
        yield env.timeout(0.5)
        link.configure(bandwidth_bps=16000.0)  # A keeps its 1 s; B takes 0.5 s

    env.process(script(), name="script")
    env.run()
    assert queued == [1]
    assert delivered == [(1.0, b"A"), (1.5, b"B")]


# -- recorded golden values -----------------------------------------------
STAR_GOLDEN = [
    (0.01048, 'hub', b'd0/0............................'),
    (0.01048, 'hub', b'd1/0............................'),
    (0.01048, 'hub', b'd2/0............................'),
    (0.01048, 'hub', b'd3/0............................'),
    (0.01048, 'hub', b'd4/0............................'),
    (0.01048, 'hub', b'd5/0............................'),
    (0.01048, 'hub', b'd6/0............................'),
    (0.01048, 'hub', b'd7/0............................'),
    (0.01053, 'hub', b'loop:d0/0............................'),
    (0.01053, 'hub', b'loop:d1/0............................'),
    (0.01053, 'hub', b'loop:d2/0............................'),
    (0.01053, 'hub', b'loop:d3/0............................'),
    (0.01053, 'hub', b'loop:d4/0............................'),
    (0.01053, 'hub', b'loop:d5/0............................'),
    (0.01053, 'hub', b'loop:d6/0............................'),
    (0.01053, 'hub', b'loop:d7/0............................'),
    (0.010960000000000001, 'hub', b'd0/1............................'),
    (0.010960000000000001, 'hub', b'd1/1............................'),
    (0.010960000000000001, 'hub', b'd2/1............................'),
    (0.010960000000000001, 'hub', b'd3/1............................'),
    (0.010960000000000001, 'hub', b'd4/1............................'),
    (0.010960000000000001, 'hub', b'd5/1............................'),
    (0.010960000000000001, 'hub', b'd6/1............................'),
    (0.010960000000000001, 'hub', b'd7/1............................'),
    (0.01101, 'hub', b'loop:d0/1............................'),
    (0.01101, 'hub', b'loop:d1/1............................'),
    (0.01101, 'hub', b'loop:d2/1............................'),
    (0.01101, 'hub', b'loop:d3/1............................'),
    (0.01101, 'hub', b'loop:d4/1............................'),
    (0.01101, 'hub', b'loop:d5/1............................'),
    (0.01101, 'hub', b'loop:d6/1............................'),
    (0.01101, 'hub', b'loop:d7/1............................'),
    (0.020999999999999998, 'd0', b'echo:d0/0............................'),
    (0.020999999999999998, 'd1', b'echo:d1/0............................'),
    (0.020999999999999998, 'd2', b'echo:d2/0............................'),
    (0.020999999999999998, 'd3', b'echo:d3/0............................'),
    (0.020999999999999998, 'd4', b'echo:d4/0............................'),
    (0.020999999999999998, 'd5', b'echo:d5/0............................'),
    (0.020999999999999998, 'd6', b'echo:d6/0............................'),
    (0.020999999999999998, 'd7', b'echo:d7/0............................'),
    (0.021519999999999997, 'd0', b'echo:d0/1............................'),
    (0.021519999999999997, 'd1', b'echo:d1/1............................'),
    (0.021519999999999997, 'd2', b'echo:d2/1............................'),
    (0.021519999999999997, 'd3', b'echo:d3/1............................'),
    (0.021519999999999997, 'd4', b'echo:d4/1............................'),
    (0.021519999999999997, 'd5', b'echo:d5/1............................'),
    (0.021519999999999997, 'd6', b'echo:d6/1............................'),
    (0.021519999999999997, 'd7', b'echo:d7/1............................'),
]
WAN_FOG_GOLDEN = [
    (0.07312250880410356, 'cloud', b'edge-3/0'),
    (0.07645427398507443, 'cloud', b'edge-3/1'),
    (0.0768218056395279, 'cloud', b'edge-0/2'),
    (0.07973323809027096, 'cloud', b'edge-1/2'),
    (0.0815671086150686, 'cloud', b'edge-0/4'),
    (0.0818977832857192, 'cloud', b'edge-2/1'),
    (0.08318388864182759, 'cloud', b'edge-3/4'),
    (0.08325198583207372, 'cloud', b'edge-1/3'),
    (0.08435848863439034, 'cloud', b'edge-1/1'),
    (0.08522468181309659, 'cloud', b'edge-0/1'),
    (0.08540205231434372, 'cloud', b'edge-0/0'),
    (0.08555088787409677, 'cloud', b'edge-1/4'),
    (0.08605178323499164, 'cloud', b'edge-3/2'),
    (0.08700676124502317, 'cloud', b'edge-3/5'),
    (0.08809792502691098, 'cloud', b'edge-2/2'),
    (0.08868183923168357, 'cloud', b'edge-0/3'),
    (0.08946197602622172, 'cloud', b'edge-2/7'),
    (0.08950436261316014, 'cloud', b'edge-1/5'),
    (0.0904359645694036, 'cloud', b'edge-2/5'),
    (0.09101843391534215, 'cloud', b'edge-2/4'),
    (0.09420913197711576, 'cloud', b'edge-2/8'),
    (0.09447309849471697, 'cloud', b'edge-0/6'),
    (0.0949268559137179, 'cloud', b'edge-1/6'),
    (0.09671234373287445, 'cloud', b'edge-3/11'),
    (0.09762217624119733, 'cloud', b'edge-2/9'),
    (0.09792378543910321, 'cloud', b'edge-3/10'),
    (0.0981966505771132, 'cloud', b'edge-3/8'),
    (0.09843669119607668, 'cloud', b'edge-0/9'),
    (0.09999281954394758, 'cloud', b'edge-3/12'),
    (0.10005508702377203, 'cloud', b'edge-1/9'),
    (0.10075626467756689, 'cloud', b'edge-1/10'),
    (0.10082962041599804, 'cloud', b'edge-2/11'),
    (0.10142102253203125, 'cloud', b'edge-0/11'),
    (0.1017160352937485, 'cloud', b'edge-2/12'),
    (0.10250213623562225, 'cloud', b'edge-3/14'),
    (0.10256354852269861, 'cloud', b'edge-1/8'),
    (0.10333760668538658, 'cloud', b'edge-3/9'),
    (0.10361702975950114, 'cloud', b'edge-3/13'),
    (0.10580452948025552, 'cloud', b'edge-2/10'),
    (0.10584102722780528, 'cloud', b'edge-0/10'),
    (0.10682291569389063, 'cloud', b'edge-0/12'),
    (0.10688548977360274, 'cloud', b'edge-1/11'),
    (0.10719458275360763, 'cloud', b'edge-2/16'),
    (0.10750970382842326, 'cloud', b'edge-0/13'),
    (0.10775365223870481, 'cloud', b'edge-1/12'),
    (0.10957500725491896, 'cloud', b'edge-3/16'),
    (0.10983905486022158, 'cloud', b'edge-2/17'),
    (0.11004729320910984, 'cloud', b'edge-1/14'),
    (0.11052067174677144, 'cloud', b'edge-0/16'),
    (0.11067678490112828, 'cloud', b'edge-2/14'),
    (0.11084707837857538, 'cloud', b'edge-2/13'),
    (0.11088392273979987, 'cloud', b'edge-3/15'),
    (0.11112300476648397, 'cloud', b'edge-1/17'),
    (0.11378547883871978, 'cloud', b'edge-2/15'),
    (0.11405816453658318, 'cloud', b'edge-1/16'),
    (0.11461161435711717, 'cloud', b'edge-2/20'),
    (0.11491263171937581, 'cloud', b'edge-3/18'),
    (0.11566775678199318, 'cloud', b'edge-0/17'),
    (0.11582901529095138, 'cloud', b'edge-0/14'),
    (0.11644953668958936, 'cloud', b'edge-3/19'),
    (0.11648500986484597, 'cloud', b'edge-1/19'),
    (0.11867775865725694, 'cloud', b'edge-0/18'),
    (0.12000717817545475, 'cloud', b'edge-0/20'),
    (0.12030556272584406, 'cloud', b'edge-2/18'),
    (0.12049490416066307, 'cloud', b'edge-1/18'),
    (0.1207947097809697, 'cloud', b'edge-2/21'),
    (0.12090098199133154, 'cloud', b'edge-3/24'),
    (0.12127267506464996, 'cloud', b'edge-1/20'),
    (0.12167040223188925, 'cloud', b'edge-3/17'),
    (0.12350418781374833, 'cloud', b'edge-0/24'),
    (0.1236619738389185, 'cloud', b'edge-1/22'),
    (0.12373155309929003, 'cloud', b'edge-1/24'),
    (0.12381452518119436, 'cloud', b'edge-3/20'),
    (0.12384198329160376, 'cloud', b'edge-2/24'),
    (0.12402960132433219, 'cloud', b'edge-2/23'),
    (0.12494628011986927, 'cloud', b'edge-0/23'),
    (0.12687041973425328, 'cloud', b'edge-0/21'),
    (0.12729053861317713, 'cloud', b'edge-0/22'),
    (0.12798808114555854, 'cloud', b'edge-3/23'),
    (0.12827586045170777, 'cloud', b'edge-3/22'),
    (0.12972087823752027, 'cloud', b'edge-1/23'),
    (0.1314115311576378, 'cloud', b'edge-2/22'),
]
WAN_FOG_DROPPED = [
    b'edge-0/15',
    b'edge-0/19',
    b'edge-0/5',
    b'edge-0/7',
    b'edge-0/8',
    b'edge-1/0',
    b'edge-1/13',
    b'edge-1/15',
    b'edge-1/21',
    b'edge-1/7',
    b'edge-2/0',
    b'edge-2/19',
    b'edge-2/3',
    b'edge-2/6',
    b'edge-3/21',
    b'edge-3/3',
    b'edge-3/6',
    b'edge-3/7',
]
