// Package vca models the four videoconferencing applications the paper
// measures — Apple FaceTime, Zoom, Cisco Webex and Microsoft Teams — at the
// level the measurements see them: server fleets and allocation policy
// (§4.1), transport and media-type selection per device mix (§4.1, §4.3),
// and full telepresence sessions over the emulated network (§4.2, §4.5).
package vca

import (
	"fmt"

	"telepresence/internal/geo"
)

// App identifies a videoconferencing application.
type App int

// The measured applications.
const (
	FaceTime App = iota
	Zoom
	Webex
	Teams
)

func (a App) String() string {
	switch a {
	case FaceTime:
		return "FaceTime"
	case Zoom:
		return "Zoom"
	case Webex:
		return "Webex"
	case Teams:
		return "Teams"
	default:
		return fmt.Sprintf("App(%d)", int(a))
	}
}

// Apps lists all measured applications.
func Apps() []App { return []App{FaceTime, Zoom, Webex, Teams} }

// Device is a participant's hardware.
type Device int

// Device types from the paper's testbed (Figure 3).
const (
	VisionPro Device = iota
	MacBook
	IPad
	IPhone
)

func (d Device) String() string {
	switch d {
	case VisionPro:
		return "VisionPro"
	case MacBook:
		return "MacBook"
	case IPad:
		return "iPad"
	case IPhone:
		return "iPhone"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// Devices lists all modeled devices.
func Devices() []Device { return []Device{VisionPro, MacBook, IPad, IPhone} }

// MediaKind is what a session delivers.
type MediaKind int

// Media kinds.
const (
	// MediaSpatialPersona is semantic keypoint delivery (FaceTime,
	// all-Vision-Pro).
	MediaSpatialPersona MediaKind = iota
	// Media2DVideo is conventional encoded video (all other cases).
	Media2DVideo
)

func (m MediaKind) String() string {
	if m == MediaSpatialPersona {
		return "spatial-persona"
	}
	return "2d-video"
}

// Transport is the wire protocol of a session.
type Transport int

// Transports.
const (
	TransportQUIC Transport = iota
	TransportRTP
)

func (t Transport) String() string {
	if t == TransportQUIC {
		return "QUIC"
	}
	return "RTP"
}

// Spec captures everything the simulation needs to impersonate one app.
type Spec struct {
	App App
	// Servers is the US fleet the paper geolocated (§4.1).
	Servers []geo.Location
	// P2PTwoParty: direct transfer with exactly two users (Zoom and
	// FaceTime), with FaceTime's all-Vision-Pro exception handled in
	// SessionPlan.
	P2PTwoParty bool
	// SupportsSpatial marks spatial-persona capability (FaceTime only as
	// of the paper's measurement).
	SupportsSpatial bool
	// VideoW/VideoH are the 2D-persona resolutions the paper observed
	// (§4.2: Webex 1920x1080, Zoom 640x360).
	VideoW, VideoH int
	// VideoTargetBps is the encoder's rate-control target.
	VideoTargetBps float64
	// AudioBps is the constant audio stream rate.
	AudioBps float64
	// ServerProcMs is per-forward processing latency at the server.
	ServerProcMs float64
}

// SpecFor returns the application model. Fleet locations follow §4.1:
// FaceTime {VA,IL,CA,TX}, Zoom {VA,CA}, Webex {NJ,CA,TX}, Teams {WA}.
func SpecFor(app App) Spec {
	switch app {
	case FaceTime:
		return Spec{
			App:             FaceTime,
			Servers:         []geo.Location{geo.ServerVA, geo.ServerIL, geo.ServerCA, geo.ServerTX},
			P2PTwoParty:     true,
			SupportsSpatial: true,
			VideoW:          1024, VideoH: 768,
			VideoTargetBps: 1.9e6,
			AudioBps:       24e3,
			ServerProcMs:   1.5,
		}
	case Zoom:
		return Spec{
			App:         Zoom,
			Servers:     []geo.Location{geo.ServerVA, geo.ServerCA},
			P2PTwoParty: true,
			VideoW:      640, VideoH: 360,
			VideoTargetBps: 1.4e6,
			AudioBps:       24e3,
			ServerProcMs:   1.5,
		}
	case Webex:
		return Spec{
			App:     Webex,
			Servers: []geo.Location{geo.ServerNJ, geo.ServerCA, geo.ServerTX},
			VideoW:  1920, VideoH: 1080,
			VideoTargetBps: 4.3e6,
			AudioBps:       24e3,
			ServerProcMs:   2.0,
		}
	case Teams:
		return Spec{
			App:     Teams,
			Servers: []geo.Location{geo.ServerWA},
			VideoW:  1280, VideoH: 720,
			VideoTargetBps: 2.6e6,
			AudioBps:       24e3,
			ServerProcMs:   2.0,
		}
	default:
		panic(fmt.Sprintf("vca: unknown app %d", int(app)))
	}
}

// AllocateServer implements the policy the paper observed on every VCA: the
// server closest to the session initiator, regardless of the other
// participants (§4.1).
func (s Spec) AllocateServer(initiator geo.Location) geo.Location {
	srv, _ := geo.Nearest(initiator, s.Servers)
	return srv
}

// Participant describes one session member.
type Participant struct {
	ID     string
	Loc    geo.Location
	Device Device
}

// Plan is the connectivity/media decision for a session, derived from the
// paper's §4.1 findings.
type Plan struct {
	App       App
	Media     MediaKind
	Transport Transport
	// P2P is set for direct two-party transfer (no server).
	P2P bool
	// Server is the allocated relay when P2P is false.
	Server geo.Location
}

// PlanSession reproduces the decision matrix of §4.1:
//
//   - Only FaceTime with ALL participants on Vision Pro delivers spatial
//     personas, over QUIC, and always via a server (the P2P exception).
//   - FaceTime otherwise ships (pre-rendered) 2D video over RTP, P2P when
//     two-party.
//   - Zoom is RTP, P2P when two-party; Webex/Teams are RTP via server.
func PlanSession(app App, parts []Participant, initiator int) (Plan, error) {
	if len(parts) < 2 {
		return Plan{}, fmt.Errorf("vca: session needs at least 2 participants, got %d", len(parts))
	}
	if initiator < 0 || initiator >= len(parts) {
		return Plan{}, fmt.Errorf("vca: initiator index %d out of range", initiator)
	}
	spec := SpecFor(app)
	if app == FaceTime && spec.SupportsSpatial && len(parts) > MaxSpatialUsers {
		return Plan{}, fmt.Errorf("vca: FaceTime supports at most %d spatial personas", MaxSpatialUsers)
	}

	allVP := true
	for _, p := range parts {
		if p.Device != VisionPro {
			allVP = false
			break
		}
	}

	plan := Plan{App: app, Media: Media2DVideo, Transport: TransportRTP}
	if app == FaceTime && allVP {
		plan.Media = MediaSpatialPersona
		plan.Transport = TransportQUIC
	}
	twoParty := len(parts) == 2
	spatialException := app == FaceTime && allVP // never P2P, even two-party
	if spec.P2PTwoParty && twoParty && !spatialException {
		plan.P2P = true
	} else {
		plan.Server = spec.AllocateServer(parts[initiator].Loc)
	}
	return plan, nil
}

// MaxSpatialUsers is FaceTime's spatial-persona participant cap (§1, §4.5).
const MaxSpatialUsers = 5
