"""Hand-written NDN host apps for the netsim scenarios.

The examples write their producers the same way: a host app that
answers each delivered interest from a catalogue.
"""

from repro.realize.ndn import build_data_packet, build_interest_packet


def digest_of(packet):
    return int.from_bytes(packet.header.locations[:4], "big")


def producer_app(catalogue):
    """A host app answering interests from ``catalogue`` (digest -> bytes).

    ``app.served`` counts the data packets it sent.
    """

    def app(host, packet, port):
        digest = digest_of(packet)
        if digest in catalogue:
            app.served += 1
            reply = build_data_packet(digest, catalogue[digest])
            host.send_packet(reply, port=port)

    app.served = 0
    return app


def received(host):
    """Digest -> payload of every data packet delivered to ``host``."""
    return {digest_of(packet): packet.payload for packet, _ in host.inbox}


def fetch(host, digest, timeout=0.5, attempts=3):
    """Send an interest for ``digest``; resend every ``timeout`` seconds
    until its data arrives or ``attempts`` interests have gone out."""
    if attempts == 0 or digest in received(host):
        return
    host.send_packet(build_interest_packet(digest))
    host.engine.schedule(timeout, fetch, host, digest, timeout, attempts - 1)
